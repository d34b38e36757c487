package rwrnlp

import (
	"context"
	"errors"
	"fmt"

	"github.com/rtsync/rwrnlp/internal/core"
)

// Incremental is an in-flight incremental request (Sec. 3.7): the caller
// declared the full set of resources it might need and takes possession in
// steps, holding earlier grants while later ones are acquired — safely,
// because entitlement already protects the entire declared set from
// conflicting requests (the role the priority ceiling plays in the PCP).
// The total blocking across all Acquire calls is bounded by a single
// request's worst case.
type Incremental struct {
	s    *shard
	id   core.ReqID
	gate bool // write potential non-empty: holds the shard's writer gate
}

// exitGate reopens the shard's writer gate once the request is complete or
// withdrawn. Idempotent under the type's single-owner contract.
func (inc *Incremental) exitGate() {
	if inc.gate {
		inc.gate = false
		inc.s.writerExit()
	}
}

// AcquireIncremental issues an incremental request whose full potential
// sets are read and write, and blocks until the initial subset (initialRead
// ∪ initialWrite, which must be subsets of the potential sets) is held. If
// ctx is done first the request is withdrawn and ctx.Err() returned.
//
// The potential set must lie within one declared resource component
// (ErrCrossComponent otherwise): incremental asks take possession in caller-
// chosen order, which is only deadlock-free under one component's total
// order.
func (p *Protocol) AcquireIncremental(ctx context.Context, read, write, initialRead, initialWrite []ResourceID) (*Incremental, error) {
	var one [1]part
	parts, err := p.split(one[:0], read, write)
	if err != nil {
		return nil, err
	}
	if len(parts) > 1 {
		return nil, fmt.Errorf("%w: incremental potential set covers %d components", ErrCrossComponent, len(parts))
	}
	s := parts[0].s
	initial := append(append([]ResourceID{}, initialRead...), initialWrite...)
	// A non-empty write potential makes the request write-capable for its
	// whole lifetime (any of those resources may be write-locked by a later
	// ask), so the writer gate stays closed until Release. All-read
	// incremental requests never write-lock anything and leave the gate
	// open — they cannot delay a fast reader.
	r := request{s: s, gate: len(write) > 0}
	_, err = r.run(ctx,
		func() (core.ReqID, error) {
			return s.rsm.IssueIncremental(s.tick(), read, write, initialRead, initialWrite, nil)
		},
		func(id core.ReqID) bool {
			ok, _ := s.rsm.Granted(id, initial)
			return ok
		},
		// Nothing is granted until the initial ask is (it is all-or-nothing),
		// so cancellation withdraws the whole request.
		nil)
	if err != nil {
		return nil, err
	}
	return &Incremental{s: s, id: r.id, gate: r.gate}, nil
}

// Acquire blocks until the additional resources (which must belong to the
// declared potential sets) are held; resources already held return
// immediately. If ctx is done first, only the pending ask is withdrawn
// (earlier grants stay held, the handle stays valid) and ctx.Err() is
// returned.
func (inc *Incremental) Acquire(ctx context.Context, resources ...ResourceID) error {
	s := inc.s
	r := request{s: s}
	held := false // the ask was granted synchronously
	_, err := r.run(ctx,
		func() (id core.ReqID, err error) {
			held, err = s.rsm.Acquire(s.tick(), inc.id, resources)
			return inc.id, err
		},
		func(id core.ReqID) bool {
			if !held {
				held, _ = s.rsm.Granted(id, resources)
			}
			return held
		},
		func(id core.ReqID) error { return s.rsm.CancelAsk(s.tick(), id) })
	if errors.Is(err, core.ErrUnknownRequest) {
		return ErrAlreadyReleased
	}
	return err
}

// Holds reports whether all the given resources are currently held.
func (inc *Incremental) Holds(resources ...ResourceID) bool {
	s := inc.s
	s.mu.Lock()
	ok, err := s.rsm.Granted(inc.id, resources)
	s.unlock()
	return err == nil && ok
}

// Release ends the critical section, releasing every held resource. It is
// valid even if only a subset of the potential resources was ever acquired.
// A second Release returns ErrAlreadyReleased.
func (inc *Incremental) Release() error {
	err := inc.s.release(inc.id)
	if err == nil {
		inc.exitGate()
	}
	return err
}
