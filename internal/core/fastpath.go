package core

// This file holds the RSM-side contract of the runtime lock's fast paths
// (rwrnlp/fastpath.go): a request confined to one component may be satisfied
// outside the RSM — with atomic publication only — exactly when the RSM
// itself would satisfy it immediately at issuance. Two admission predicates
// define that condition: WriterFree for the BRAVO-style reader plane, and
// ComponentIdle for the uncontended-writer plane. The model checker
// (internal/mc) verifies both implications on every reachable state:
// whenever WriterFree holds for a component, a fresh all-read request over
// that component is satisfied by Issue in the same invocation; whenever
// ComponentIdle holds, a fresh request of ANY kind over that component is.

// WriterFree reports whether no incomplete request could write-lock any
// resource of the component containing a — the RSM-side admission predicate
// of the reader fast path.
//
// KindWrite covers every write-capable form: plain writes, mixed requests
// (Sec. 3.5, their write half locks N^w), the write half of an upgradeable
// pair (Sec. 3.6), and incremental requests with a non-empty write potential.
// All-read incomplete requests are deliberately ignored: readers never
// conflict with readers (Rule R1), so their presence cannot delay a fresh
// read.
//
// Correctness (see IMPLEMENTATION.md, "Reader fast path"): if WriterFree(a)
// holds, a fresh all-read request R over resources of a's component
// satisfies Rule R1 immediately — the rule's blocker scan (nextBlocker) looks
// for entitled or satisfied write-capable requests on R's resources, and with
// no KindWrite request incomplete in the component there is none, so
// freshPass satisfies R in the Issue invocation itself with zero acquisition
// delay.
func (m *RSM) WriterFree(a ResourceID) bool {
	if a < 0 || int(a) >= m.spec.NumResources() {
		return false
	}
	c := m.spec.Component(a)
	for _, r := range m.incomplete {
		if r.kind != KindWrite {
			continue
		}
		// A request's footprint never crosses a component boundary (the
		// read-sharing closure is component-confined), so any one member
		// locates it.
		found := false
		r.need.ForEach(func(b ResourceID) bool {
			found = m.spec.Component(b) == c
			return false
		})
		if found {
			return false
		}
	}
	return true
}

// ComponentIdle reports whether no incomplete request of any kind touches
// the component containing a — the RSM-side admission predicate of the
// uncontended-writer fast path.
//
// Correctness (see IMPLEMENTATION.md, "Writer fast path"): if
// ComponentIdle(a) holds, a fresh request R confined to a's component is
// satisfied by Rules R1/W1 in the Issue invocation itself — every queue of
// the component is empty, so R (or its placeholders) heads every write queue
// it enqueues in, and the blocker scan (nextBlocker) finds no entitled or
// satisfied request to conflict with. The predicate deliberately counts
// all-read requests too: a write issued behind an incomplete read is NOT
// satisfied immediately (phase alternation), so the writer plane needs the
// stronger emptiness condition where the reader plane gets away with
// WriterFree.
func (m *RSM) ComponentIdle(a ResourceID) bool {
	if a < 0 || int(a) >= m.spec.NumResources() {
		return false
	}
	c := m.spec.Component(a)
	for _, r := range m.incomplete {
		found := false
		r.need.ForEach(func(b ResourceID) bool {
			found = m.spec.Component(b) == c
			return false
		})
		if found {
			return false
		}
	}
	return true
}

// IncompleteLen reports the number of incomplete requests in the RSM. The
// sharded runtime lock mirrors it into a per-shard atomic (rsmLive) after
// every issuance and completion so the writer fast path's admission
// pre-check and re-check can read "is this component's RSM empty" without
// taking the shard mutex.
func (m *RSM) IncompleteLen() int { return len(m.incomplete) }
