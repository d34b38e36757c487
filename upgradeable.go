package rwrnlp

import (
	"context"
	"errors"
	"fmt"

	"github.com/rtsync/rwrnlp/internal/core"
)

// ErrNotReading is returned by Upgrade/ReleaseRead when the upgradeable
// request is not in its optimistic read phase.
var ErrNotReading = errors.New("rwrnlp: upgradeable request is not in its read phase")

// Upgradeable is an in-flight upgradeable request (Sec. 3.6): the caller
// optimistically reads under read locks and may then atomically queue-jump
// to write access without re-contending from the back of the line — the
// write half kept its original timestamp the whole time.
//
// Lifecycle:
//
//	u, _ := p.AcquireUpgradeable(ctx, rs...)
//	if u.Reading() {
//	    // read the data
//	    if needWrite {
//	        u.Upgrade(ctx)     // blocks; data may have changed — re-read!
//	        // write the data
//	        u.Release()
//	    } else {
//	        u.ReleaseRead()    // done, write half canceled
//	    }
//	} else {
//	    // the write half won the race: full write access, no read segment
//	    // write the data
//	    u.Release()
//	}
type Upgradeable struct {
	s       *shard
	h       core.UpgradeHandle
	reading bool
	gate    bool // the pair holds its shard's writer gate (see fastpath.go)
}

// exitGate reopens the shard's writer gate once the pair can no longer
// write-lock anything (completed, read-released, or withdrawn). Idempotent:
// the several terminal paths of the pair's lifecycle may race only with
// themselves (an Upgradeable is single-owner), so a plain flag suffices.
func (u *Upgradeable) exitGate() {
	if u.gate {
		u.gate = false
		u.s.writerExit()
	}
}

// AcquireUpgradeable blocks until the upgradeable request holds either its
// read locks (the common case — check Reading) or, if the write half won the
// race, its write locks. If ctx is done first, the pair is withdrawn and
// ctx.Err() returned.
//
// The resources must lie within one declared component (ErrCrossComponent
// otherwise): the pair's two halves share one timestamp in one total order.
func (p *Protocol) AcquireUpgradeable(ctx context.Context, resources ...ResourceID) (*Upgradeable, error) {
	var one [1]part
	parts, err := p.split(one[:0], resources, nil)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		return nil, fmt.Errorf("%w: upgradeable footprint covers %d components", ErrCrossComponent, len(parts))
	}
	s := parts[0].s
	var h core.UpgradeHandle
	var phase core.UpgradePhase
	// Either half satisfied ends the wait: the read half's grant signals the
	// waiter directly, and the write half's satisfaction cancels the read
	// half, which signals it too.
	granted := func(core.ReqID) bool {
		phase = s.rsm.UpgradePhase(h)
		return phase == core.UpgradeReading || phase == core.UpgradeWriting
	}
	// The pair's write half is write-capable from issuance on (it may win
	// the race immediately), so the writer gate closes for the pair's whole
	// lifetime.
	r := request{s: s, gate: true}
	parked, err := r.run(ctx,
		func() (core.ReqID, error) {
			var err error
			h, err = s.rsm.IssueUpgradeable(s.tick(), resources, nil)
			return h.ReadID, err
		},
		granted,
		func(core.ReqID) error { return s.rsm.CancelUpgradeable(s.tick(), h) })
	if err != nil {
		return nil, err
	}
	if parked {
		// phase predates the wait: read which half was satisfied.
		s.mu.Lock()
		granted(h.ReadID)
		s.unlock()
	}
	return &Upgradeable{s: s, h: h, reading: phase == core.UpgradeReading, gate: true}, nil
}

// Reading reports whether the request is in its optimistic read phase.
func (u *Upgradeable) Reading() bool { return u.reading }

// Upgrade ends the read segment and blocks until write access is granted.
// The resources may have been modified by other writers in between; the
// caller must re-validate anything it read (Sec. 3.6). After Upgrade
// returns nil, finish with Release. If ctx is done before write access is
// granted, the write half is withdrawn — the read locks are already gone at
// that point, so the pair is over and Release reports ErrAlreadyReleased.
func (u *Upgradeable) Upgrade(ctx context.Context) error {
	s := u.s
	r := request{s: s}
	parked, err := r.run(ctx,
		func() (core.ReqID, error) {
			if !u.reading {
				return 0, ErrNotReading
			}
			u.reading = false
			return u.h.WriteID, s.rsm.FinishRead(s.tick(), u.h, true)
		},
		func(core.ReqID) bool { return s.rsm.UpgradePhase(u.h) == core.UpgradeWriting },
		func(core.ReqID) error { return s.rsm.CancelUpgradeable(s.tick(), u.h) })
	if err != nil && parked {
		// The pair is over: the read locks were released by FinishRead and
		// the write half has been withdrawn.
		u.exitGate()
	}
	return err
}

// ReleaseRead ends the read segment without upgrading: the write half is
// canceled and the request is complete.
func (u *Upgradeable) ReleaseRead() error {
	s := u.s
	s.mu.Lock()
	if !u.reading {
		s.unlock()
		return ErrNotReading
	}
	u.reading = false
	err := s.rsm.FinishRead(s.tick(), u.h, false)
	s.selfCheck()
	s.unlock()
	if err == nil {
		// Write half canceled, read locks released: the pair is complete.
		u.exitGate()
	}
	return err
}

// Release ends the write segment (after Upgrade, or when the write half won
// the race at acquisition). A second Release — or a Release after a
// context-canceled Upgrade — returns ErrAlreadyReleased.
func (u *Upgradeable) Release() error {
	err := u.s.release(u.h.WriteID)
	if err == nil {
		u.exitGate()
	}
	return err
}
