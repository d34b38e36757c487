package core

import "fmt"

// This file implements read-to-write upgrading (Sec. 3.6).
//
// An upgradeable request R^u is treated as two requests issued atomically:
// a read half R^{u_r} and a write half R^{u_w} over the same resources,
// which can cancel each other:
//
//   - if R^{u_w} is satisfied before R^{u_r}, the read half is canceled and
//     the job proceeds directly to its write segment;
//   - if R^{u_r} is satisfied first, the job optimistically executes its
//     read-only segment. When it finishes it either cancels R^{u_w} (no
//     upgrade needed) or releases its read locks and waits for R^{u_w}
//     (upgrade). Data may change between the two segments; callers that
//     cannot tolerate re-reads should issue a plain write request instead.
//
// The two halves conflict with each other like any read/write pair over
// common resources; this is what prevents the write half from being
// "satisfied" while the read half still holds its locks. The optimistic
// read segment executes "for free" with respect to worst-case blocking: the
// pair's bound is a write request's bound, which already budgets for
// blocking readers. Per Prop. P2 accounting, the pair counts as ONE request.

// UpgradeHandle identifies the two halves of an upgradeable request.
type UpgradeHandle struct {
	ReadID  ReqID // R^{u_r}
	WriteID ReqID // R^{u_w}
}

// UpgradePhase reports which half of an upgradeable request is active.
type UpgradePhase int

const (
	// UpgradePending: neither half satisfied yet.
	UpgradePending UpgradePhase = iota
	// UpgradeReading: the read half is satisfied; the job may execute its
	// read-only segment and must then call FinishRead.
	UpgradeReading
	// UpgradeWriting: the write half is satisfied (either directly, with the
	// read half canceled, or after FinishRead(…, true)); the job may execute
	// its write segment and must then call Complete on the write half.
	UpgradeWriting
	// UpgradeDone: the pair has fully completed or been canceled.
	UpgradeDone
)

func (p UpgradePhase) String() string {
	switch p {
	case UpgradePending:
		return "pending"
	case UpgradeReading:
		return "reading"
	case UpgradeWriting:
		return "writing"
	case UpgradeDone:
		return "done"
	default:
		return fmt.Sprintf("UpgradePhase(%d)", int(p))
	}
}

// IssueUpgradeable issues an upgradeable request for the given resources at
// time t (Sec. 3.6): the read half is enqueued in the read queue of every
// resource and the write half in the write queues (with expansion or
// placeholders per the RSM options), atomically within one invocation. The
// read half is considered first, so on an uncontended system the read half
// is satisfied immediately and the write half becomes entitled behind it.
func (m *RSM) IssueUpgradeable(t Time, resources []ResourceID, tag any) (UpgradeHandle, error) {
	if err := m.checkTime(t); err != nil {
		return UpgradeHandle{}, err
	}
	need := NewResourceSet(resources...)
	ur, err := m.buildRequest(t, need.Clone(), ResourceSet{}, tag)
	if err != nil {
		return UpgradeHandle{}, err
	}
	uw, err := m.buildRequest(t, ResourceSet{}, need.Clone(), tag)
	if err != nil {
		return UpgradeHandle{}, err
	}
	m.nextGroup++
	ur.group, uw.group = m.nextGroup, m.nextGroup
	ur.groupPeer, uw.groupPeer = uw, ur
	ur.pair, uw.pair = uw.id, ur.id
	ur.upgradeRole, uw.upgradeRole = roleURead, roleUWrite
	// The pair counts as a single request for Prop. P2 purposes; both halves
	// still count individually in the Issued statistic above, so correct it.
	m.stats.Issued--

	m.enqueue(ur)
	m.enqueue(uw)
	m.emit(t, EvIssued, ur, ur.pertain)
	m.emit(t, EvIssued, uw, uw.pertain)
	m.stabilize(t)
	return UpgradeHandle{ReadID: ur.id, WriteID: uw.id}, nil
}

// UpgradePhase reports the current phase of the pair.
func (m *RSM) UpgradePhase(h UpgradeHandle) UpgradePhase {
	ur := m.reqs[h.ReadID]
	uw := m.reqs[h.WriteID]
	switch {
	case ur != nil && ur.state == StateSatisfied:
		return UpgradeReading
	case uw != nil && uw.state == StateSatisfied:
		return UpgradeWriting
	case ur == nil && uw == nil:
		return UpgradeDone
	default:
		return UpgradePending
	}
}

// FinishRead reports that the optimistic read segment of the pair finished
// at time t. If upgrade is false, no write access turned out to be needed:
// the write half is canceled and the pair is done. If upgrade is true, the
// read locks are released and the job must wait until the write half is
// satisfied (the resources' state may change in between — see Sec. 3.6).
//
// FinishRead is valid only while the read half is satisfied
// (UpgradeReading); in particular it must not be called if the write half
// won the race and the read half was canceled.
func (m *RSM) FinishRead(t Time, h UpgradeHandle, upgrade bool) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	ur := m.reqs[h.ReadID]
	if ur == nil || ur.upgradeRole != roleURead {
		return fmt.Errorf("%w: read half %d", ErrNotUpgrade, h.ReadID)
	}
	if ur.state != StateSatisfied {
		return fmt.Errorf("%w: FinishRead with read half in state %s", ErrBadState, ur.state)
	}
	released := ur.granted // unlockAll replaces the set, it does not empty it
	m.unlockAll(ur)
	ur.state = StateComplete
	ur.completeT = t
	m.removeIncomplete(ur)
	m.emit(t, EvReadSegmentDone, ur, released)
	m.retire(ur)

	uw := m.reqs[h.WriteID]
	if upgrade {
		m.stats.UpgradesTaken++
		// The write half stays queued (it may already be entitled); once the
		// read locks above are released its blocking set shrinks and normal
		// satisfaction applies.
	} else {
		m.stats.UpgradesSkipped++
		if uw != nil && (uw.state == StateWaiting || uw.state == StateEntitled) {
			m.cancel(t, uw)
		}
	}
	m.stabilize(t)
	return nil
}

// cancel removes one half of an upgradeable pair from all queues without it
// ever holding resources. Cancellation can remove the only obstacle blocking
// other requests without unlocking anything — a case the base rules never
// face; the caller's stabilize pass re-applies the R1/W1 immediate-
// satisfaction test to every waiting request afterwards.
func (m *RSM) cancel(t Time, r *request) {
	m.dequeueAll(r)
	r.state = StateCanceled
	r.completeT = t
	m.removeIncomplete(r)
	m.stats.Canceled++
	m.emit(t, EvCanceled, r, r.pertain)
	m.retire(r)
}

// CancelUpgradeable withdraws an upgradeable pair before it holds anything.
// Two configurations are legal:
//
//   - Neither half satisfied (UpgradePending): both halves are canceled.
//     This is the context-cancellation path of the runtime's upgradeable
//     acquire, mirroring CancelRequest for plain requests.
//   - The read half already completed via FinishRead(…, true) and the write
//     half is still waiting/entitled: only the write half is canceled. This
//     is the context-cancellation path of a pending upgrade; the caller no
//     longer holds the read locks, so nothing is released.
//
// If either half is satisfied (holds locks), cancellation is refused with
// ErrBadState — the pair must go through its normal FinishRead/Complete
// lifecycle instead.
func (m *RSM) CancelUpgradeable(t Time, h UpgradeHandle) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	uw := m.reqs[h.WriteID]
	if uw == nil || uw.upgradeRole != roleUWrite {
		return fmt.Errorf("%w: write half %d", ErrNotUpgrade, h.WriteID)
	}
	if (uw.state != StateWaiting && uw.state != StateEntitled) || !uw.granted.Empty() {
		return fmt.Errorf("%w: CancelUpgradeable with write half in state %s", ErrBadState, uw.state)
	}
	ur := m.reqs[h.ReadID]
	if ur != nil {
		if ur.upgradeRole != roleURead {
			return fmt.Errorf("%w: read half %d", ErrNotUpgrade, h.ReadID)
		}
		if ur.state == StateSatisfied || !ur.granted.Empty() {
			return fmt.Errorf("%w: read half is satisfied; use FinishRead", ErrBadState)
		}
		m.cancel(t, ur)
		// The pair counted as one request at issue (stats.Issued was
		// decremented); canceling both halves must likewise count once.
		m.stats.Canceled--
	}
	m.cancel(t, uw)
	m.stabilize(t)
	return nil
}

// CancelRequest withdraws a request that has not yet acquired anything:
// waiting or entitled plain requests, and incremental requests with no
// grants. It must not be used on satisfied requests, partially granted
// incremental requests, or the halves of an upgradeable pair (those cancel
// each other through their own lifecycle). Cancellation dequeues the
// request everywhere; the stabilization pass then re-evaluates waiting
// requests, since removing a queue entry can unblock them without any
// resource being unlocked.
//
// This is an extension beyond the paper (which has no timeout story); it is
// what gives the runtime plane context-aware acquisition. Canceling a
// waiting request cannot affect any satisfied request and therefore
// preserves every safety invariant; the worst-case bounds of OTHER requests
// only improve (their blocking sets and queues shrink).
func (m *RSM) CancelRequest(t Time, id ReqID) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	r := m.reqs[id]
	if r == nil {
		return fmt.Errorf("%w: id=%d", ErrUnknownRequest, id)
	}
	if r.group != 0 {
		return fmt.Errorf("%w: cancel upgradeable halves via FinishRead", ErrNotUpgrade)
	}
	if r.state != StateWaiting && r.state != StateEntitled {
		return fmt.Errorf("%w: CancelRequest in state %s", ErrBadState, r.state)
	}
	if !r.granted.Empty() {
		return fmt.Errorf("%w: request %d holds %v", ErrBadState, id, r.granted)
	}
	m.cancel(t, r)
	m.stabilize(t)
	return nil
}
