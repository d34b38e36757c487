package core

import "fmt"

// This file implements incremental locking (Sec. 3.7).
//
// An incremental request declares a priori the full set of resources it
// could possibly lock during its critical section (the same information the
// priority ceiling protocol requires) and is queued for all of them, but may
// take possession incrementally: once the request is entitled, a requested
// subset s is granted as soon as no resource in s is locked by a conflicting
// request. Because the request is entitled to its whole potential set,
// Corollaries 1 and 2 guarantee that no conflicting request can be satisfied
// before it, so the total acquisition delay summed over all incremental asks
// is bounded by the single-shot worst case of Theorems 1 and 2. Entitlement
// here plays the role the priority ceiling plays in the PCP.

// IssueIncremental issues an incremental request at time t. read and write
// are the full potential sets; initialRead/initialWrite (subsets of them)
// form the first ask. The request is enqueued for its full potential sets.
// If it is satisfied immediately (Rules R1/W1) it holds everything; check
// Info or the Granted method. Otherwise the first ask is granted once the
// request is entitled and the asked resources are free of conflicts.
func (m *RSM) IssueIncremental(t Time, read, write, initialRead, initialWrite []ResourceID, tag any) (ReqID, error) {
	if err := m.checkTime(t); err != nil {
		return 0, err
	}
	nr := NewResourceSet(read...)
	nw := NewResourceSet(write...)
	nr.SubtractWith(nw)
	// Validate the ask before buildRequest mints an ID and counts the
	// issuance: a rejected ask must leave no trace.
	want := NewResourceSet(initialRead...)
	want.UnionWith(NewResourceSet(initialWrite...))
	if need := Union(nr, nw); !need.ContainsAll(want) {
		return 0, fmt.Errorf("core: initial ask %s is not a subset of the potential set %s", want, need)
	}
	r, err := m.buildRequest(t, nr, nw, tag)
	if err != nil {
		return 0, err
	}
	r.incremental = true
	r.want = want
	r.askT = t
	m.enqueue(r)
	m.emit(t, EvIssued, r, r.pertain)
	m.stabilize(t)
	return r.id, nil
}

// Acquire asks for additional resources of an incremental request at time t.
// The resources must belong to the declared potential set and not already be
// granted; any outstanding previous ask is merged. It returns true if the
// ask was granted synchronously (the caller holds the resources on return);
// otherwise the grant happens at a later invocation and is reported through
// an EvGranted event, with completion of the ask observable via Granted.
func (m *RSM) Acquire(t Time, id ReqID, resources []ResourceID) (bool, error) {
	if err := m.checkTime(t); err != nil {
		return false, err
	}
	r := m.reqs[id]
	if r == nil {
		return false, fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
	}
	if !r.incremental {
		return false, fmt.Errorf("%w: id=%d", ErrNotIncremental, id)
	}
	if r.state != StateEntitled && r.state != StateWaiting && r.state != StateSatisfied {
		return false, fmt.Errorf("%w: Acquire in state %s", ErrBadState, r.state)
	}
	ask := NewResourceSet(resources...)
	if !r.need.ContainsAll(ask) {
		return false, fmt.Errorf("core: ask %s is not a subset of the potential set %s", ask, r.need)
	}
	ask.SubtractWith(r.granted)
	if ask.Empty() && r.want.Empty() {
		return true, nil // everything already held
	}
	if r.state == StateSatisfied {
		// Satisfied means the full potential set is held already.
		return true, nil
	}
	r.want.UnionWith(ask)
	if r.askT < 0 {
		r.askT = t
	}
	m.stabilize(t)
	return r.want.Empty(), nil
}

// CancelAsk withdraws the outstanding (ungranted) ask of an incremental
// request, e.g. when the caller's context expires while waiting for a grant.
// A pending ask occupies no queues and holds nothing — Acquire only records
// the asked set on the request — so cancellation simply clears it; resources
// already granted are unaffected and the request itself stays issued (it
// still occupies the queues of its full potential set, as Sec. 3.7 requires).
func (m *RSM) CancelAsk(t Time, id ReqID) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	r := m.reqs[id]
	if r == nil {
		return fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
	}
	if !r.incremental {
		return fmt.Errorf("%w: id=%d", ErrNotIncremental, id)
	}
	r.want = ResourceSet{}
	r.askT = -1
	return nil
}

// Granted reports whether the request currently holds all resources in the
// given set (for incremental requests, whether an earlier ask has been
// granted).
func (m *RSM) Granted(id ReqID, resources []ResourceID) (bool, error) {
	r := m.reqs[id]
	if r == nil {
		return false, fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
	}
	return r.granted.ContainsAll(NewResourceSet(resources...)), nil
}

// grantPass grants outstanding incremental asks: an entitled incremental
// request's ask is granted atomically as soon as every asked resource is
// free of conflicting locks (Sec. 3.7).
func (m *RSM) grantPass(t Time) bool {
	changed := false
	for _, r := range m.scan() {
		if !r.incremental || r.state != StateEntitled || r.want.Empty() {
			continue
		}
		if !m.askFree(r) {
			continue
		}
		// Every asked resource is needed, so it is locked in exactly one
		// mode: write if the request write-locks it, read otherwise.
		ask := r.want
		r.want = ResourceSet{}
		ask.ForEach(func(a ResourceID) bool {
			m.lockOne(r, a, r.wlock.Has(a))
			return true
		})
		if r.askT >= 0 {
			r.incDelay += t - r.askT
			r.askT = -1
		}
		m.emit(t, EvGranted, r, ask)
		// Once the full needed set is held the request is satisfied
		// outright: dequeue it everywhere (Rule G2). Expansion extras are
		// never granted incrementally; their queue entries persist until
		// this dequeue and thus gate later writes exactly as placeholders
		// would, so incremental requests behave identically in both modes.
		if r.granted.ContainsAll(r.need) {
			m.dequeueAll(r)
			r.state = StateSatisfied
			r.satisfyT = t
			m.stats.Satisfied++
			m.emit(t, EvSatisfied, r, r.granted)
		}
		changed = true
	}
	return changed
}

// askFree reports whether every resource in r.want is free of locks that
// conflict with r's access mode for that resource.
func (m *RSM) askFree(r *request) bool {
	free := true
	r.want.ForEach(func(a ResourceID) bool {
		rs := &m.res[a]
		if rs.writeHolder != nil {
			free = false
			return false
		}
		if r.wlock.Has(a) && len(rs.readHolders) > 0 {
			free = false
			return false
		}
		return true
	})
	return free
}
