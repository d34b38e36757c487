package rwrnlp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements futex-style per-request parking for the contended
// slow path. Every unsatisfied request gets one waiter, whose lifecycle is
// a single packed state word driven by CAS:
//
//	parkIdle ──signal──▶ parkSignaled          (direct: owner never blocked)
//	parkIdle ──owner───▶ parkParked            (owner commits to blocking)
//	parkParked ─signal─▶ parkSignaled + token  (exactly one wake)
//	parkParked ─owner──▶ parkCancelled         (ctx cancellation won)
//	parkCancelled ◀─signal arrives too late    (spurious: dropped by CAS)
//
// The terminal states are absorbing, so a signal-vs-cancel race settles by
// whichever CAS lands first — never by a double close, and never with a
// lost wakeup: if the signaler's CAS wins, the token is in flight and the
// cancelling owner consumes it; if the canceller's CAS wins, the signaler
// drops the signal as spurious and the owner resolves the request's true
// state under the shard mutex (a satisfied-then-cancelled request is still
// owned — Acquire's documented "acquisition wins" rule).
//
// Parking itself is a buffered channel of capacity one used as a token
// semaphore: signal is one CAS plus one non-blocking send, so a batched
// release that satisfies many requests wakes exactly the entitled ones,
// one runtime wakeup each — no broadcast, no thundering herd. In front of
// the park sits a bounded spin/yield burst (and, under WithSpin, a short
// capped sleep ladder that re-checks the state word before every sleep):
// on a contended shard with short critical sections most signals land
// within the burst, and the request resolves without a scheduler round
// trip at all (counted as park_direct).
//
// A drained one-token channel is reusable (a closed channel would be
// one-shot), so waiters recycle through a sync.Pool, removing the
// waiter+channel allocation from every contended acquisition.
// Recycling is only legal on paths where the signaler has provably finished
// with the waiter — the owner consumed the token (the send happens-before
// the receive) or observed the direct-delivery CAS (the signaler's last
// touch). The cancellation paths never recycle: a batched late signal may
// still be in flight against the cancelled waiter, and resetting the state
// word under it would hand the signal to an unrelated future request.

// Waiter states (waiter.state).
const (
	parkIdle      uint32 = iota // created; owner not yet committed to blocking
	parkParked                  // owner is blocked (or about to block) on sema
	parkSignaled                // grant delivered; absorbing
	parkCancelled               // owner withdrew (ctx cancellation); absorbing
)

// Pre-park burst tuning. The yield burst bounds single-P starvation (every
// iteration yields); the sleep ladder is capped so that once a signal has
// fired the waiter sleeps at most parkMaxSleep longer — the old ladder
// re-checked only per rung and could oversleep by two orders of magnitude.
const (
	parkSpinYields = 256
	parkMaxSleep   = 8 * time.Microsecond
)

// parkOutcome classifies one signal delivery, for the shard's accounting
// counters (park_wakeups / park_direct / park_spurious).
type parkOutcome uint8

const (
	parkWokeParked parkOutcome = iota // woke a parked goroutine with one token
	parkDirect                        // delivered before the owner parked
	parkSpurious                      // owner already cancelled; dropped
)

// waiter is the parked state of one unsatisfied request: state drives
// everything and sema carries at most one token.
type waiter struct {
	state atomic.Uint32
	sema  chan struct{}
	// next links the waiter into its shard's batch of pending signals, from
	// the grant (under the shard mutex) until unlock delivers the signal.
	next *waiter
}

// waiterPool recycles waiters. Pooled waiters are always in state parkIdle
// with an empty channel.
var waiterPool = sync.Pool{
	New: func() any { return &waiter{sema: make(chan struct{}, 1)} },
}

// newWaiter takes a waiter from the pool.
func newWaiter() *waiter { return waiterPool.Get().(*waiter) }

// recycle returns a waiter to the pool. Callers must guarantee the signaler
// is done with it: the wakeup token was consumed, or direct delivery was
// observed via the state word. Never call on a cancellation path — a late
// spurious signal may still be in flight.
func (w *waiter) recycle() {
	w.state.Store(parkIdle)
	waiterPool.Put(w)
}

// signal delivers the waiter's one wakeup and reports what it found. Safe
// to call at most once per waiter (the waiters map hands each waiter out
// exactly once).
func (w *waiter) signal() parkOutcome {
	for {
		switch w.state.Load() {
		case parkIdle:
			if w.state.CompareAndSwap(parkIdle, parkSignaled) {
				return parkDirect
			}
		case parkParked:
			if w.state.CompareAndSwap(parkParked, parkSignaled) {
				// The send cannot block (capacity 1, one signal per waiter)
				// and cannot be missed: the owner either is blocked on sema
				// or will consume the token when its cancel CAS fails.
				w.sema <- struct{}{}
				return parkWokeParked
			}
		default:
			// Signaled (double signal — structurally excluded by the waiters
			// map) or cancelled: nothing to wake.
			return parkSpurious
		}
	}
}

// cancel resolves the owner's side of a signal-vs-cancel race: true means
// the cancellation won (the request must be withdrawn or re-checked under
// the shard mutex), false means a signal's CAS already landed and its token
// is in flight.
func (w *waiter) cancel() bool {
	return w.state.CompareAndSwap(parkParked, parkCancelled)
}

// preParkSpin runs the bounded burst in front of the park. Blocking mode
// (the default) checks the state word once and parks immediately — exactly
// the old blocking waiter's latency profile, minus its wakeup broadcast.
// Spin mode (WithSpin) folds the old spin machinery in front of the park:
// a yield loop, then a short exponential sleep ladder capped at
// parkMaxSleep that re-checks the state word before every sleep — so the
// worst-case signal-to-wake latency added by the burst is one parkMaxSleep
// rung, not the sum of the ladder. Reports whether the signal already
// landed.
func (w *waiter) preParkSpin(spin bool) bool {
	if w.state.Load() == parkSignaled {
		return true
	}
	if !spin {
		return false
	}
	for i := 0; i < parkSpinYields; i++ {
		if w.state.Load() == parkSignaled {
			return true
		}
		runtime.Gosched()
	}
	for d := time.Microsecond; d <= parkMaxSleep; d *= 2 {
		if w.state.Load() == parkSignaled {
			return true
		}
		time.Sleep(d)
	}
	return w.state.Load() == parkSignaled
}

// park commits the owner to blocking after the pre-park burst. False means
// the signal already landed and the owner must not block.
func (w *waiter) park(spin bool) bool {
	if w.preParkSpin(spin) {
		return false
	}
	return w.state.CompareAndSwap(parkIdle, parkParked)
}

// wait blocks until signaled (no cancellation).
func (w *waiter) wait(spin bool) {
	if w.park(spin) {
		<-w.sema
	}
}
