package core

import "fmt"

// CheckInvariants inspects the RSM's internal state and returns a
// description of every violated structural invariant (nil when consistent).
// It is the library form of the E13 verification harness; embedders can run
// it after invocations during bring-up (the runtime Protocol exposes it via
// Options.SelfCheck, and the test suites call it after every invocation of
// randomized episodes).
//
// Checked invariants (numbering follows EXPERIMENTS.md E13):
//
//	I1  Mutual exclusion: a write-locked resource has exactly one holder.
//	I2  No two holders with conflicting locked sets.
//	I3  Prop. E10: conflicting read/write requests never both entitled.
//	I4  Write queues are timestamp ordered (Rule W1).
//	I5  Satisfied/complete requests appear in no queue (Rule G2).
//	I6  An entitled write (or its placeholder) heads every write queue it
//	    occupies (Def. 4).
//	I7  Lemma 6: the earliest incomplete write is entitled or satisfied —
//	    checked in the weakened form that tolerates the legitimate blocking
//	    channels of the Sec. 3.5/3.7 extensions (an entitled read occupying
//	    a relevant read queue).
//	I9  Waiting requests hold nothing; entitled non-incremental requests
//	    hold nothing.
//
// maxInvariantReports caps the number of individually formatted violations;
// the count beyond the cap is still reported in a final "… and N more" entry
// so consumers (in particular the model checker's minimizer) can distinguish
// a truncated report from a stable one.
const maxInvariantReports = 20

func (m *RSM) CheckInvariants() []string {
	var v []string
	truncated := 0
	fail := func(format string, args ...any) {
		if len(v) < maxInvariantReports {
			v = append(v, fmt.Sprintf(format, args...))
		} else {
			truncated++
		}
	}

	for a := range m.res {
		rs := &m.res[a]
		if rs.writeHolder != nil && len(rs.readHolders) > 0 {
			fail("I1: resource %d write locked by %d with %d readers", a, rs.writeHolder.id, len(rs.readHolders))
		}
		for i := 1; i < len(rs.wq); i++ {
			if rs.wq[i-1].r.id > rs.wq[i].r.id {
				fail("I4: WQ(%d) out of timestamp order", a)
			}
		}
		for _, e := range rs.wq {
			if e.r.state == StateSatisfied || e.r.state == StateComplete || e.r.state == StateCanceled {
				fail("I5: request %d (%s) still in WQ(%d)", e.r.id, e.r.state, a)
			}
		}
		for _, r := range rs.rq {
			if r.state == StateSatisfied || r.state == StateComplete || r.state == StateCanceled {
				fail("I5: request %d (%s) still in RQ(%d)", r.id, r.state, a)
			}
		}
	}

	var earliestWrite *request
	for _, r := range m.incomplete {
		if r.kind == KindWrite && (earliestWrite == nil || r.id < earliestWrite.id) {
			earliestWrite = r
		}
		holding := !r.granted.Empty()
		if holding {
			for _, o := range m.incomplete {
				if o == r || o.granted.Empty() {
					continue
				}
				if holderConflict(r, o) {
					fail("I2: %d and %d hold conflicting locks", r.id, o.id)
				}
			}
		}
		if r.state == StateEntitled && r.kind == KindRead {
			for _, o := range m.incomplete {
				if o.state == StateEntitled && o.kind == KindWrite && r.conflictsWith(o) {
					fail("I3/E10: entitled read %d conflicts with entitled write %d", r.id, o.id)
				}
			}
		}
		if r.state == StateEntitled && r.kind == KindWrite {
			Union(r.wqSet, r.placeholders).ForEach(func(a ResourceID) bool {
				q := m.res[a].wq
				if len(q) == 0 || q[0].r != r {
					fail("I6: entitled write %d not at head of WQ(%d)", r.id, a)
				}
				return true
			})
		}
		if r.state == StateWaiting && !r.granted.Empty() {
			fail("I9: waiting request %d holds %v", r.id, r.granted)
		}
		if r.state == StateEntitled && !r.incremental && !r.granted.Empty() {
			fail("I9: entitled request %d holds %v", r.id, r.granted)
		}
	}

	if earliestWrite != nil && earliestWrite.state == StateWaiting {
		exempt := false
		earliestWrite.pertain.ForEach(func(a ResourceID) bool {
			for _, rr := range m.res[a].rq {
				if rr.state == StateEntitled {
					exempt = true
					return false
				}
			}
			return true
		})
		if !exempt {
			fail("I7/Lemma 6: earliest write %d is waiting", earliestWrite.id)
		}
	}
	if truncated > 0 {
		v = append(v, fmt.Sprintf("… and %d more violations (report truncated at %d)", truncated, maxInvariantReports))
	}
	return v
}

// holderConflict tests whether two partially-or-fully granted requests hold
// conflicting locks, based on what each actually holds and in which mode.
func holderConflict(a, b *request) bool {
	aw := a.granted.Clone()
	aw.IntersectWith(a.wlock)
	bw := b.granted.Clone()
	bw.IntersectWith(b.wlock)
	return aw.Intersects(b.granted) || bw.Intersects(a.granted)
}
