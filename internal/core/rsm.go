// Package core implements the request-satisfaction mechanism (RSM) of the
// R/W RNLP — the reader/writer real-time nested locking protocol of Ward and
// Anderson ("Multi-Resource Real-Time Reader/Writer Locks for
// Multiprocessors", IPDPS 2014).
//
// The RSM is the protocol's ordering brain: it decides when resource
// requests are satisfied, independent of how waiting is realized (spinning
// or suspending) and of the progress mechanism that keeps lock holders
// scheduled. This package is therefore a pure, single-threaded state
// machine driven by invocations (request issuance and critical-section
// completion, Rule G4); the discrete-event simulator (internal/sim) and the
// goroutine-facing runtime lock (package rwrnlp) both embed it.
//
// Implemented protocol features:
//
//   - the base RSM: Rules G1–G4, R1–R2, W1–W2 and entitlement Defs. 3–4
//     (Sec. 3.2 of the paper), with write-request expansion over read sets;
//   - placeholder requests instead of expansion (Sec. 3.4, Options.Placeholders);
//   - R/W mixing: requests that read some resources and write others
//     (Sec. 3.5);
//   - read-to-write upgrading (Sec. 3.6);
//   - incremental locking within an entitled request (Sec. 3.7).
package core

import (
	"errors"
	"fmt"
)

// Options configure protocol variants of the RSM.
type Options struct {
	// Placeholders selects the Sec. 3.4 optimization: instead of expanding a
	// write request's lock set to ∪ S(ℓ), enqueue placeholder entries in the
	// write queues of the non-needed read-shared resources and lock only N.
	// Placeholders preserve the worst-case bounds and strictly increase
	// concurrency.
	Placeholders bool

	// RecordHistory retains a RequestInfo for every completed or canceled
	// request, retrievable via History. Experiments use it to compute
	// acquisition-delay statistics without an Observer.
	RecordHistory bool

	// ChaosSkipWQHeadCheck is a TEST-ONLY fault-injection switch used by the
	// systematic model checker (internal/mc) to validate that its detectors
	// actually fire: it removes freshPass's write-queue head check,
	// re-introducing the satisfaction-overtakes-earlier-write bug ruled out
	// by Finding 1 (see freshPass). A later-timestamped write can then be
	// satisfied past an earlier conflicting one, falsifying Lemma 6 and the
	// mutex-RNLP satisfaction order. Never enable outside tests.
	ChaosSkipWQHeadCheck bool

	// ChaosDeafFreshReads is a TEST-ONLY fault-injection switch validating
	// the model checker's fast-path admission detector: it makes freshPass
	// skip read requests and disables lateReadPass, so a fresh read issued
	// into a writer-free component strands in StateWaiting instead of being
	// satisfied immediately — breaking exactly the implication
	// (WriterFree ⇒ immediate read satisfaction) the runtime reader fast
	// path relies on. Never enable outside tests.
	ChaosDeafFreshReads bool

	// ChaosDeafFreshWrites is the writer-plane counterpart of
	// ChaosDeafFreshReads: freshPass skips write-capable requests (still
	// clearing their fresh flag) and entitlePass refuses to entitle them, so
	// a fresh write issued into an IDLE component strands in StateWaiting —
	// breaking exactly the implication (ComponentIdle ⇒ immediate
	// satisfaction) the runtime writer fast path relies on. Entitlement must
	// be suppressed too: a stranded fresh write in an otherwise empty
	// component heads every queue and would be entitled and satisfied within
	// the same stabilize call, hiding the injected fault from the detector.
	// Never enable outside tests.
	ChaosDeafFreshWrites bool

	// FirstID and IDStep stride the request-ID space so several RSMs feeding
	// shared observers mint globally unique IDs (the sharded runtime lock
	// runs one RSM per resource component; shard i uses FirstID=i,
	// IDStep=numShards). IDs are FirstID+IDStep, FirstID+2·IDStep, … — still
	// strictly increasing within one RSM, so per-RSM timestamp reasoning is
	// unaffected. A zero (or negative) IDStep means 1, giving the default
	// dense numbering 1, 2, 3, …
	FirstID ReqID
	IDStep  ReqID
}

// Exported errors returned by RSM methods on API misuse.
var (
	ErrUnknownRequest  = errors.New("core: unknown or completed request")
	ErrBadState        = errors.New("core: request is not in a valid state for this operation")
	ErrTimeRegressed   = errors.New("core: invocation time precedes an earlier invocation (violates G4 total order)")
	ErrEmptyRequest    = errors.New("core: request needs no resources")
	ErrNotUpgrade      = errors.New("core: request is not an upgradeable pair")
	ErrNotIncremental  = errors.New("core: request is not incremental")
	ErrUnknownResource = errors.New("core: resource out of range")
)

// resourceState is the per-resource queue and lock state of Fig. 1: a read
// queue RQ(ℓ), a timestamp-ordered write queue WQ(ℓ) (which may contain
// placeholder entries in placeholder mode), and the current holders.
type resourceState struct {
	wq          []wqEntry  // FIFO by timestamp (Rule W1)
	rq          []*request // issuance order (order is irrelevant for reads)
	readHolders []*request // satisfied requests holding ℓ in read mode
	writeHolder *request   // the unique satisfied request holding ℓ in write mode
}

type wqEntry struct {
	r           *request
	placeholder bool
}

// RSM is the request-satisfaction mechanism. It is NOT safe for concurrent
// use; callers serialize invocations (Rule G4 requires a total order anyway).
type RSM struct {
	spec *Spec
	opt  Options

	nextID ReqID
	lastT  Time

	res        []resourceState
	reqs       map[ReqID]*request
	incomplete []*request // all incomplete requests, timestamp order

	// pass is the one buffer every stabilization pass ranges over (see scan);
	// free holds the records of retired requests for buildRequest to reuse.
	// Together with the capacity the queues above retain, they are why a
	// warmed-up RSM allocates nothing per invocation.
	pass []*request
	free []*request

	nextGroup int64

	obs     Observer
	wake    func(ReqID)
	history []RequestInfo

	stats Stats
}

// Stats aggregates protocol activity counters.
type Stats struct {
	Issued          int64
	Satisfied       int64
	Completed       int64
	Canceled        int64
	ImmediateSats   int64 // satisfied at issuance via R1/W1
	Entitlements    int64
	UpgradesTaken   int64 // read halves that proceeded to the write segment
	UpgradesSkipped int64 // write halves canceled because no upgrade was needed
}

// NewRSM creates an RSM for the resource system described by spec.
func NewRSM(spec *Spec, opt Options) *RSM {
	if opt.IDStep <= 0 {
		opt.IDStep = 1
	}
	return &RSM{
		spec:   spec,
		opt:    opt,
		nextID: opt.FirstID,
		res:    make([]resourceState, spec.NumResources()),
		reqs:   make(map[ReqID]*request),
	}
}

// SetObserver installs obs to receive protocol events; nil disables, and is
// the zero-cost path: no Event is built for nobody. An embedder that only
// needs to know whom an invocation unblocked uses SetWakeHook instead.
func (m *RSM) SetObserver(obs Observer) { m.obs = obs }

// SetWakeHook installs f to be called, during the invocation that causes it,
// with the ID of every request that is satisfied, is granted an incremental
// ask, or is canceled — the three transitions that end a caller's wait (the
// runtime lock collects the waiters to signal from it). It costs one call
// per such transition and builds no Event; like an Observer, f must not call
// back into the RSM. Nil disables.
func (m *RSM) SetWakeHook(f func(ReqID)) { m.wake = f }

// Spec returns the resource-system description the RSM was built with.
func (m *RSM) Spec() *Spec { return m.spec }

// Options returns the protocol variant configuration.
func (m *RSM) Options() Options { return m.opt }

// Stats returns a copy of the activity counters.
func (m *RSM) Stats() Stats { return m.stats }

// History returns the records of completed/canceled requests accumulated
// under Options.RecordHistory. The returned slice is owned by the caller.
func (m *RSM) History() []RequestInfo {
	h := make([]RequestInfo, len(m.history))
	copy(h, m.history)
	return h
}

// emit reports one transition of r: to the wake hook if it ends a wait, and
// as an Event to the observer — built only if there is one.
func (m *RSM) emit(t Time, typ EventType, r *request, rs ResourceSet) {
	if m.wake != nil {
		switch typ {
		case EvSatisfied, EvGranted, EvCanceled:
			m.wake(r.id)
		}
	}
	if m.obs == nil {
		return
	}
	e := Event{
		T: t, Type: typ, Req: r.id, Kind: r.kind,
		Resources:   rs.Clone(),
		Read:        r.needRead.Clone(),
		Write:       r.wlock.Clone(),
		Pair:        r.pair,
		Incremental: r.incremental,
		Tag:         r.tag,
	}
	switch typ {
	case EvIssued:
		if r.state == StateWaiting {
			e.Blockers = m.blockerIDs(r, false)
		}
	case EvEntitled:
		e.Blockers = m.blockerIDs(r, true)
	}
	m.obs.Observe(e)
}

// nextBlocker is the one scan behind every blocking decision and every wait
// edge: it returns the index of the first incomplete request at or after
// from — m.incomplete is in timestamp order — that blocks r, or -1. A request
// blocks r when it conflicts with r and is "holding", of which the rules know
// two senses:
//
//   - holdersOnly=false, the blocking condition of Rules R1/W1 (at issuance):
//     every entitled or satisfied request;
//   - holdersOnly=true, the blocking set B(R, t) of Rules R2/W2 (at
//     entitlement): every satisfied request, and an entitled incremental one
//     through the locks it has been granted so far.
//
// Conflicts are evaluated against the blocker's actual lock-relevant sets
// (conflictsWith), so a partially granted incremental request blocks exactly
// through what it pertains to.
func (m *RSM) nextBlocker(r *request, holdersOnly bool, from int) int {
	for i := from; i < len(m.incomplete); i++ {
		o := m.incomplete[i]
		if o == r {
			continue
		}
		holding := o.state == StateSatisfied ||
			(o.state == StateEntitled && (!holdersOnly || (o.incremental && !o.granted.Empty())))
		if holding && r.conflictsWith(o) {
			return i
		}
	}
	return -1
}

// blocked reports whether any request blocks r in the given sense.
func (m *RSM) blocked(r *request, holdersOnly bool) bool {
	return m.nextBlocker(r, holdersOnly, 0) >= 0
}

// blockerIDs lists the requests r is waiting behind, in timestamp order: the
// wait edges an Event reports, produced by the same scan that decides the
// rules. Only computed when an observer is attached, so the unobserved
// invocation path never pays for it.
func (m *RSM) blockerIDs(r *request, holdersOnly bool) []ReqID {
	var ids []ReqID
	for i := m.nextBlocker(r, holdersOnly, 0); i >= 0; i = m.nextBlocker(r, holdersOnly, i+1) {
		ids = append(ids, m.incomplete[i].id)
	}
	return ids
}

func (m *RSM) checkTime(t Time) error {
	if t < m.lastT {
		return fmt.Errorf("%w: t=%d < last=%d", ErrTimeRegressed, t, m.lastT)
	}
	m.lastT = t
	return nil
}

// ---------------------------------------------------------------------------
// Issuance (Rules G1, R1, W1; Secs. 3.4–3.5)

// Issue issues a request at time t that needs read access to the resources
// in read and write access to those in write (Sec. 3.5 mixing: both may be
// non-empty; overlapping IDs are treated as writes). A request with an empty
// write set is a read request; otherwise it is a write request.
//
// The returned ReqID identifies the request in subsequent calls. Use Info to
// learn whether it was satisfied immediately. tag is an opaque annotation
// carried into events (pass nil if unused).
func (m *RSM) Issue(t Time, read, write []ResourceID, tag any) (ReqID, error) {
	nr := NewResourceSet(read...)
	nw := NewResourceSet(write...)
	nr.SubtractWith(nw) // overlap is a write
	return m.issueSets(t, nr, nw, tag)
}

func (m *RSM) issueSets(t Time, nr, nw ResourceSet, tag any) (ReqID, error) {
	if err := m.checkTime(t); err != nil {
		return 0, err
	}
	r, err := m.buildRequest(t, nr, nw, tag)
	if err != nil {
		return 0, err
	}
	m.enqueue(r)
	m.emit(t, EvIssued, r, r.pertain)
	m.stabilize(t)
	return r.id, nil
}

// buildRequest validates the needed sets and constructs the request with its
// expansion extras or placeholder set, without enqueueing it. The record
// comes off the free list when there is one.
func (m *RSM) buildRequest(t Time, nr, nw ResourceSet, tag any) (*request, error) {
	if err := m.spec.Validate(nr); err != nil {
		return nil, err
	}
	if err := m.spec.Validate(nw); err != nil {
		return nil, err
	}
	need := Union(nr, nw)
	if need.Empty() {
		return nil, ErrEmptyRequest
	}
	m.nextID += m.opt.IDStep
	var r *request
	if n := len(m.free); n > 0 {
		r, m.free[n-1] = m.free[n-1], nil
		m.free = m.free[:n-1]
	} else {
		r = new(request)
	}
	*r = request{
		id:        m.nextID,
		needRead:  nr,
		needWrite: nw,
		need:      need,
		state:     StateWaiting,
		issueT:    t,
		fresh:     true,
		tag:       tag,
	}
	if nw.Empty() {
		r.kind = KindRead
		r.rqSet = need.Clone()
	} else {
		r.kind = KindWrite
		// Write-request expansion (Sec. 3.2): pertain to every resource read
		// shared with a needed resource, either by acquiring it (expanded
		// mode) or by a placeholder entry in its write queue (Sec. 3.4).
		extra := m.spec.Expand(need)
		extra.SubtractWith(need)
		if m.opt.Placeholders {
			r.placeholders = extra
		} else {
			r.extraWrite = extra
		}
	}
	r.wlock = Union(nw, r.extraWrite)
	r.pertain = Union(need, r.extraWrite)
	if r.kind == KindWrite {
		r.wqSet = r.pertain.Clone()
	}
	m.stats.Issued++
	return r, nil
}

// retire is the last step of a request that completed or was canceled, once
// it has left every queue, holder list and the incomplete list and its last
// event is out: its RequestInfo goes to the history (under RecordHistory) and
// its record to the free list. What may still hold the pointer is the current
// pass's buffer, and a pass only acts on waiting or entitled requests — so the
// record keeps its terminal state until buildRequest overwrites it, which no
// pass is running across.
func (m *RSM) retire(r *request) {
	if m.opt.RecordHistory {
		m.history = append(m.history, r.info())
	}
	if p := r.groupPeer; p != nil {
		p.groupPeer, r.groupPeer = nil, nil
	}
	r.tag = nil
	m.free = append(m.free, r)
}

// enqueue inserts the request into the queues of every resource it pertains
// to (Rules R1/W1 first clauses; Sec. 3.4 placeholder enqueueing).
func (m *RSM) enqueue(r *request) {
	m.reqs[r.id] = r
	m.incomplete = append(m.incomplete, r)
	if r.kind == KindRead {
		r.rqSet.ForEach(func(a ResourceID) bool {
			m.res[a].rq = append(m.res[a].rq, r)
			return true
		})
		return
	}
	r.wqSet.ForEach(func(a ResourceID) bool {
		m.res[a].wq = append(m.res[a].wq, wqEntry{r: r})
		return true
	})
	r.placeholders.ForEach(func(a ResourceID) bool {
		m.res[a].wq = append(m.res[a].wq, wqEntry{r: r, placeholder: true})
		return true
	})
	// Appending keeps every write queue in timestamp order (Rule W1): IDs are
	// minted in invocation order and a request is enqueued by the invocation
	// that mints it. CheckInvariants verifies the order (I4).
}

// ---------------------------------------------------------------------------
// Completion (Rules G2, G3)

// Complete reports at time t that the request's critical section finished.
// All resources held by the request are unlocked (Rule G3). Valid only for
// satisfied requests — or entitled incremental requests, which may complete
// having acquired only a subset of their potential resources (Sec. 3.7).
func (m *RSM) Complete(t Time, id ReqID) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	r := m.reqs[id]
	if r == nil {
		return fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
	}
	switch {
	case r.state == StateSatisfied:
	case r.state == StateEntitled && r.incremental:
		// An incremental request may finish early without acquiring the rest
		// of its potential set; it still occupies its queue slots, so remove
		// them now.
		m.dequeueAll(r)
	default:
		return fmt.Errorf("%w: Complete(%d) in state %s", ErrBadState, id, r.state)
	}
	m.unlockAll(r)
	r.state = StateComplete
	r.completeT = t
	m.removeIncomplete(r)
	m.stats.Completed++
	m.emit(t, EvCompleted, r, r.pertain)
	m.retire(r)
	m.stabilize(t)
	return nil
}

// unlockAll releases every resource currently locked by r.
func (m *RSM) unlockAll(r *request) {
	r.granted.ForEach(func(a ResourceID) bool {
		rs := &m.res[a]
		if rs.writeHolder == r {
			rs.writeHolder = nil
		}
		rs.readHolders = removeReq(rs.readHolders, r)
		return true
	})
	r.granted = ResourceSet{}
}

// dequeueAll removes r (and its placeholders) from every queue (Rule G2).
func (m *RSM) dequeueAll(r *request) {
	r.rqSet.ForEach(func(a ResourceID) bool {
		m.res[a].rq = removeReq(m.res[a].rq, r)
		return true
	})
	for _, set := range [2]ResourceSet{r.wqSet, r.placeholders} {
		set.ForEach(func(a ResourceID) bool {
			m.res[a].wq = removeWQ(m.res[a].wq, r)
			return true
		})
	}
}

func (m *RSM) removeIncomplete(r *request) {
	m.incomplete = removeReq(m.incomplete, r)
	delete(m.reqs, r.id)
}

// removeReq and removeWQ shrink a queue in place and zero the slots they
// vacate: the backing arrays are kept for their capacity, and a pointer left
// behind past len would alias the record once it is recycled.
func removeReq(s []*request, r *request) []*request {
	for i, x := range s {
		if x == r {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

func removeWQ(s []wqEntry, r *request) []wqEntry {
	out := s[:0]
	for _, e := range s {
		if e.r != r {
			out = append(out, e)
		}
	}
	clear(s[len(out):])
	return out
}

// ---------------------------------------------------------------------------
// The stabilization fixed point

// stabilize drives the RSM to the unique post-invocation state: it applies
// Rules R1/W1 (immediate satisfaction, for requests flagged for recheck),
// R2/W2 (satisfaction of entitled requests whose blocking set emptied),
// incremental grants (Sec. 3.7), and entitlement transitions (Defs. 3–4),
// repeating in timestamp order until no rule fires. Timestamp order makes
// the result deterministic; the paper's Props. E1–E10 guarantee the fixed
// point is reached after O(requests) rounds.
func (m *RSM) stabilize(t Time) {
	for {
		changed := false
		if m.freshPass(t) {
			changed = true
		}
		if m.satisfyPass(t) {
			changed = true
		}
		if m.grantPass(t) {
			changed = true
		}
		if m.entitlePass(t) {
			changed = true
		}
		if m.lateReadPass(t) {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// freshPass applies the immediate-satisfaction clauses of Rules R1/W1 to
// requests at their issuance invocation: a fresh waiting request that
// conflicts with no entitled or satisfied request is satisfied at once.
// One refinement over the paper's literal text (Finding 1,
// IMPLEMENTATION.md): a write must additionally head every write queue it
// is enqueued in (including placeholder queues) — satisfaction must never
// overtake an earlier-timestamped conflicting write, or Lemma 6 (and with
// it the Theorem 2 bound) breaks. Sec. 3.4 states this explicitly:
// placeholders "prevent later-issued write requests from becoming entitled
// or satisfied".
func (m *RSM) freshPass(t Time) bool {
	changed := false
	for _, r := range m.scan() {
		if r.state != StateWaiting || !r.fresh {
			continue
		}
		r.fresh = false
		if r.kind == KindRead && m.opt.ChaosDeafFreshReads {
			continue
		}
		if r.kind == KindWrite && m.opt.ChaosDeafFreshWrites {
			continue
		}
		if r.kind == KindWrite && !m.opt.ChaosSkipWQHeadCheck && !m.headEverywhere(r) {
			continue
		}
		if !m.blocked(r, false) {
			m.satisfy(t, r, true)
			changed = true
		}
	}
	return changed
}

// lateReadPass re-applies Rule R1's satisfaction test to non-fresh waiting
// READS after entitlement updates (Finding 3): a read whose last blocker
// vanished without write-locking anything can satisfy neither Def. 3 nor
// R2 and would strand. Running after entitlePass ensures a write that
// became entitled at this same invocation blocks the read (reads concede to
// entitled writes). Writes never need this: Def. 4 has no trigger
// precondition, so an unblocked waiting write always proceeds through
// entitle→satisfy (Props. E7/E9).
func (m *RSM) lateReadPass(t Time) bool {
	if m.opt.ChaosDeafFreshReads {
		return false
	}
	changed := false
	for _, r := range m.scan() {
		if r.state != StateWaiting || r.kind != KindRead {
			continue
		}
		if !m.blocked(r, false) {
			m.satisfy(t, r, true)
			changed = true
		}
	}
	return changed
}

// headEverywhere reports whether r (or its placeholder) heads every write
// queue it is enqueued in.
func (m *RSM) headEverywhere(r *request) bool {
	ok := true
	for _, set := range [2]ResourceSet{r.wqSet, r.placeholders} {
		set.ForEach(func(a ResourceID) bool {
			q := m.res[a].wq
			ok = len(q) != 0 && q[0].r == r
			return ok
		})
		if !ok {
			break
		}
	}
	return ok
}

// satisfyPass applies Rules R2/W2: an entitled request is satisfied at the
// first instant its blocking set B(R, t) is empty.
func (m *RSM) satisfyPass(t Time) bool {
	changed := false
	for _, r := range m.scan() {
		if r.state != StateEntitled || r.incremental {
			continue
		}
		if !m.blocked(r, true) {
			m.satisfy(t, r, false)
			changed = true
		}
	}
	return changed
}

// satisfy transitions r to Satisfied: dequeues it everywhere (Rule G2),
// locks its lock sets, and resolves upgrade-pair interactions (Sec. 3.6).
func (m *RSM) satisfy(t Time, r *request, immediate bool) {
	m.dequeueAll(r)
	if !r.placeholders.Empty() {
		m.emit(t, EvPlaceholdersRemoved, r, r.placeholders)
		r.placeholders = ResourceSet{}
	}
	r.state = StateSatisfied
	r.satisfyT = t
	if r.incremental {
		if r.askT >= 0 {
			r.incDelay += t - r.askT
			r.askT = -1
		}
		r.want = ResourceSet{}
	}
	m.lock(r, r.needRead, false)
	m.lock(r, r.wlock, true)
	m.stats.Satisfied++
	if immediate {
		m.stats.ImmediateSats++
	}
	m.emit(t, EvSatisfied, r, r.granted)

	// Sec. 3.6: if the write half of an upgradeable request is satisfied
	// while the read half is still queued, the read half is canceled.
	if r.upgradeRole == roleUWrite && r.groupPeer != nil {
		p := r.groupPeer
		if p.state == StateWaiting || p.state == StateEntitled {
			m.cancel(t, p)
		}
	}
}

// lock records r as holder of every resource in set, in write mode if write.
func (m *RSM) lock(r *request, set ResourceSet, write bool) {
	set.ForEach(func(a ResourceID) bool {
		m.lockOne(r, a, write)
		return true
	})
}

// lockOne records r as a holder of resource a, in write mode if write.
func (m *RSM) lockOne(r *request, a ResourceID, write bool) {
	rs := &m.res[a]
	if write {
		if rs.writeHolder != nil {
			panic(fmt.Sprintf("core: double write lock on resource %d (holder %d, new %d)", a, rs.writeHolder.id, r.id))
		}
		rs.writeHolder = r
	} else {
		rs.readHolders = append(rs.readHolders, r)
	}
	r.granted.Add(a)
}

// entitlePass applies Defs. 3–4: waiting requests become entitled when
// eligible. Evaluation is in timestamp order so that, e.g., the read half of
// an upgradeable pair is considered before its write half.
func (m *RSM) entitlePass(t Time) bool {
	changed := false
	for _, r := range m.scan() {
		if r.state != StateWaiting {
			continue
		}
		if r.kind == KindWrite && m.opt.ChaosDeafFreshWrites {
			continue
		}
		var ok bool
		if r.kind == KindRead {
			ok = m.readEntitleEligible(r)
		} else {
			ok = m.writeEntitleEligible(r)
		}
		if ok {
			r.state = StateEntitled
			r.entitleT = t
			m.stats.Entitlements++
			// Sec. 3.4: placeholders are removed when the request becomes
			// entitled (they have done their job: no later write passed).
			if !r.placeholders.Empty() {
				ph := r.placeholders
				r.placeholders = ResourceSet{}
				ph.ForEach(func(a ResourceID) bool {
					m.res[a].wq = removeWQ(m.res[a].wq, r)
					return true
				})
				m.emit(t, EvPlaceholdersRemoved, r, ph)
			}
			m.emit(t, EvEntitled, r, r.pertain)
			changed = true
		}
	}
	return changed
}

// readEntitleEligible implements Def. 3: an unsatisfied read request becomes
// entitled when some resource in D is write locked and, for every resource
// in D, the head of its write queue is not entitled (placeholders are never
// entitled; an empty queue is a null, non-entitled head).
func (m *RSM) readEntitleEligible(r *request) bool {
	someWriteLocked := false
	ok := true
	r.need.ForEach(func(a ResourceID) bool {
		rs := &m.res[a]
		if rs.writeHolder != nil {
			someWriteLocked = true
		}
		if len(rs.wq) > 0 {
			h := rs.wq[0]
			if !h.placeholder && h.r.state == StateEntitled {
				ok = false
				return false
			}
		}
		return true
	})
	return someWriteLocked && ok
}

// writeEntitleEligible implements Def. 4 with the Sec. 3.4 and Sec. 3.5
// adjustments: the request (or its placeholder) must be at the head of every
// write queue it is enqueued in — including placeholder queues; no read
// request in RQ(ℓ) may be entitled for any ℓ ∈ D; and no resource in D may
// be held by a write request (a resource read-locked by a mixed request is
// treated as if it were write locked).
func (m *RSM) writeEntitleEligible(r *request) bool {
	// Head of every write queue where enqueued (real and placeholder).
	if !m.headEverywhere(r) {
		return false
	}
	// For each ℓ ∈ D (needed set plus expansion extras): no entitled read,
	// and no write-kind holder.
	ok := true
	r.pertain.ForEach(func(a ResourceID) bool {
		rs := &m.res[a]
		for _, rr := range rs.rq {
			if rr.state == StateEntitled {
				ok = false
				return false
			}
		}
		if rs.writeHolder != nil {
			ok = false
			return false
		}
		for _, h := range rs.readHolders {
			if h.kind == KindWrite { // read-locked by a mixed request (Sec. 3.5)
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// scan copies the incomplete list into the RSM's pass buffer, so that a pass
// may retire requests (mutating the list) while ranging over it. One buffer
// serves every pass because passes never nest: the only thing a pass calls
// that walks requests is satisfy → cancel, which does not stabilize.
func (m *RSM) scan() []*request {
	m.pass = append(m.pass[:0], m.incomplete...)
	return m.pass
}

// ---------------------------------------------------------------------------
// Introspection

// Info returns a snapshot of the request's state. Completed or canceled
// requests are reported only when Options.RecordHistory is enabled;
// otherwise Info returns ErrUnknownRequest once a request is gone.
func (m *RSM) Info(id ReqID) (RequestInfo, error) {
	if r := m.reqs[id]; r != nil {
		return r.info(), nil
	}
	if m.opt.RecordHistory {
		for i := len(m.history) - 1; i >= 0; i-- {
			if m.history[i].ID == id {
				return m.history[i], nil
			}
		}
	}
	return RequestInfo{}, fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
}

// State returns the request's current lifecycle state, or StateComplete /
// StateCanceled from history if recorded.
func (m *RSM) State(id ReqID) (State, error) {
	if r := m.reqs[id]; r != nil {
		return r.state, nil
	}
	ri, err := m.Info(id)
	return ri.State, err
}

// QueueState describes a resource's RSM state at one instant (Fig. 2(b)).
type QueueState struct {
	Resource    ResourceID
	RQ          []ReqID // waiting/entitled read requests
	WQ          []ReqID // waiting/entitled write requests, timestamp order
	Placeholder []bool  // Placeholder[i] reports whether WQ[i] is a placeholder entry
	ReadHolders []ReqID
	WriteHolder ReqID // 0 = none
}

// Queues returns the current queue/lock state of resource a.
func (m *RSM) Queues(a ResourceID) QueueState {
	rs := &m.res[a]
	qs := QueueState{Resource: a}
	for _, r := range rs.rq {
		qs.RQ = append(qs.RQ, r.id)
	}
	for _, e := range rs.wq {
		qs.WQ = append(qs.WQ, e.r.id)
		qs.Placeholder = append(qs.Placeholder, e.placeholder)
	}
	for _, r := range rs.readHolders {
		qs.ReadHolders = append(qs.ReadHolders, r.id)
	}
	if rs.writeHolder != nil {
		qs.WriteHolder = rs.writeHolder.id
	}
	return qs
}

// Incomplete returns the IDs of all incomplete requests in timestamp order.
func (m *RSM) Incomplete() []ReqID {
	ids := make([]ReqID, len(m.incomplete))
	for i, r := range m.incomplete {
		ids[i] = r.id
	}
	return ids
}

// Holders returns the IDs of requests currently holding resource a, with
// the write holder (if any) first.
func (m *RSM) Holders(a ResourceID) []ReqID {
	rs := &m.res[a]
	var ids []ReqID
	if rs.writeHolder != nil {
		ids = append(ids, rs.writeHolder.id)
	}
	for _, r := range rs.readHolders {
		ids = append(ids, r.id)
	}
	return ids
}
