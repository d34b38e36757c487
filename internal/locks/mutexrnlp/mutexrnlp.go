// Package mutexrnlp implements the original mutex-only RNLP of Ward and
// Anderson (ECRTS 2012, reference [19] of the paper) as a runtime lock: a
// fine-grained nested locking protocol in which EVERY request — including
// read-only ones — is an exclusive request. It is realized on the same
// request-satisfaction engine as the R/W RNLP with all requests issued as
// writes, which degenerates the phase-fair machinery to per-resource
// timestamp-ordered FIFO queues: exactly the mutex RNLP's satisfaction
// order.
//
// This is the prior-art baseline whose O(m) reader blocking motivates the
// paper: compare a read-mostly workload here against package rwrnlp.
package mutexrnlp

import (
	"context"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/core"
)

// Lock is a mutex RNLP instance over q resources.
type Lock struct {
	p *rwrnlp.Protocol
}

// New creates a mutex RNLP for q resources.
func New(q int) *Lock {
	// One write-only declaration over every resource: it contributes no read
	// sharing (none exists when every request is exclusive) but makes the
	// resources one component, so every request — whatever its footprint —
	// is one atomic acquisition in one timestamp order. Undeclared, each
	// resource would be its own component, and the engine's multi-component
	// slow path (per-component sequential locking) is NOT the mutex RNLP.
	// Both fast-path planes are off: this package exists to exhibit the RSM's
	// timestamp-FIFO satisfaction order, and the writer fast path would serve
	// uncontended requests outside the RSM entirely.
	b := core.NewSpecBuilder(q)
	all := make([]core.ResourceID, q)
	for i := range all {
		all[i] = core.ResourceID(i)
	}
	if err := b.DeclareRequest(nil, all); err != nil {
		panic(err) // unreachable: every ID is in [0, q)
	}
	return &Lock{p: rwrnlp.New(b.Build(), rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}))}
}

// Token identifies a held acquisition.
type Token = rwrnlp.Token

// Acquire blocks until exclusive access to all resources is held. Reads and
// writes are not distinguished — that is the protocol's limitation.
func (l *Lock) Acquire(resources ...core.ResourceID) (Token, error) {
	return l.p.Write(context.Background(), resources...)
}

// Release ends the critical section.
func (l *Lock) Release(t Token) error { return l.p.Release(t) }

// Stats exposes the underlying engine's counters.
func (l *Lock) Stats() core.Stats { return l.p.Stats() }
