package rwrnlp

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// issueOp is a published acquisition record (flat combining): a goroutine
// that finds the shard mutex contended pushes its op onto a lock-free stack
// instead of queueing on the mutex, and the current lock holder executes it
// before unlocking. One mutex handoff then completes many acquisitions.
type issueOp struct {
	next        *issueOp
	read, write []ResourceID
	// tag is the caller's request tag (see ContextWithTag), stamped onto
	// every core event of the issued request; nil for untagged acquisitions.
	tag any

	// Results, published before done — the release/acquire pair on done
	// makes them visible to the publisher.
	id   core.ReqID
	w    *waiter // non-nil if not satisfied synchronously
	err  error
	done atomic.Bool
}

// opPool recycles the ops contended combines publish. The combining stack is
// push-one/swap-all, so a recycled op reappearing at its head while another
// publisher's CAS is in flight is harmless: the CAS only asserts that the
// head is still the pointer the publisher linked behind its own op.
var opPool = sync.Pool{New: func() any { return new(issueOp) }}

// shard runs one connected component's RSM behind its own mutex. Requests
// confined to the component never interact with other shards in any way
// (see core.Spec: the read-sharing closure never crosses a component
// boundary), so per-shard Rule G4 total orders preserve the protocol within
// each component. Request IDs are strided (FirstID=idx, IDStep=n) so they
// are globally unique across shards.
type shard struct {
	p   *Protocol
	idx int
	n   int // shard count (for globally unique fast-path event IDs)

	mu      sync.Mutex
	rsm     *core.RSM
	clock   core.Time
	waiters map[core.ReqID]*waiter
	// The waiters satisfied during the current critical section, in grant
	// order, linked through waiter.next: unlock signals them after releasing
	// the mutex.
	sigHead, sigTail *waiter

	ops atomic.Pointer[issueOp] // combining stack; nil = empty

	// Reader fast path (BRAVO-style; see fastpath.go). fastSlots is nil
	// when both planes are disabled (WithFastPath(FastPathConfig{})), which
	// disables every fast-path hook; fastR/fastW gate the per-plane
	// admission attempts. fastWriters is the writer gate: the number of
	// write-capable requests anywhere between writerEnter and writerExit
	// (fast writers hold it for their whole critical section); readers are
	// admitted to the slots only while it is zero. fastRHyst is the plane's
	// revocation hysteresis. fastSurr maps a fast claim sequence to its
	// migrated surrogate RSM request (guarded by mu); a fast read that is
	// never migrated reaches neither the RSM nor the event stream (see
	// fastpath.go).
	fastR       bool
	fastW       bool
	fastSlots   []fastSlot
	fastMask    int
	fastWriters atomic.Int64
	fastRHyst   hysteresis
	fastSurr    map[uint64]core.ReqID

	// Writer fast path (see fastpath.go). fastWWord holds the current
	// claim's sequence (0 = free); fastWRead/fastWWrite its published
	// footprint masks. rsmLive mirrors the RSM's incomplete count (stored
	// under mu by runOp/unlock/syncLive); rsmIntent counts issuers between
	// slowEnter and slowExit. The admission pre-check and re-check read both
	// without the mutex. fastWSurr maps a writer claim sequence to its
	// migrated surrogate (guarded by mu); fastWMig is the handshake word of
	// the exactly-once retirement, written only under mu.
	fastWWord      atomic.Uint64
	fastWRead      [fastSlotWords]atomic.Uint64
	fastWWrite     [fastSlotWords]atomic.Uint64
	fastWSeq       atomic.Uint64
	fastWMig       atomic.Uint64
	fastWSurr      map[uint64]core.ReqID
	fastWHyst      hysteresis
	fastWOps       atomic.Int64 // attempts since the last re-enable (storm detection)
	fastWReenabled atomic.Bool  // the plane has been revoked and re-enabled before
	rsmLive        atomic.Int64
	rsmIntent      atomic.Int64

	// pipe is the shard's whole observability plane and, when non-nil, the
	// RSM's observer. Nil — the RSM then has no observer and builds no events
	// — unless an observability option was set or a tracer installed (see
	// pipeline). Its request table sees only this shard's strided IDs; the
	// metrics sink, attributor and flight recorder behind it are the
	// Protocol's, so the protocol_* series aggregate across shards, while the
	// watchdog is the shard's own (tick clocks never mix).
	pipe *obs.Pipeline

	// Per-shard instruments (nil unless metrics), carrying a shard label.
	acquires, releases, contended, combined *obs.Counter
	combineWait                             *obs.Histogram
	parkWakeC, parkDirectC, parkSpurC       *obs.Counter
	fastHitC, fastMissC                     *obs.Counter
	fastRevokedC, fastMigratedC             *obs.Counter
	fastWHitC, fastWMissC                   *obs.Counter
	fastWRevokedC, fastWMigratedC           *obs.Counter
	fastWStormC                             *obs.Counter
}

func newShard(p *Protocol, idx, n int) *shard {
	s := &shard{p: p, idx: idx, n: n, waiters: make(map[core.ReqID]*waiter)}
	s.rsm = core.NewRSM(p.spec, core.Options{
		Placeholders: p.cfg.placeholders,
		FirstID:      core.ReqID(idx),
		IDStep:       core.ReqID(n),
	})
	if fc := p.cfg.fast; fc.enabled() {
		s.fastR = fc.Readers
		s.fastW = fc.Writers
		s.initFastPath()
	}
	if p.metrics != nil {
		s.acquires = p.metrics.Counter(obs.ShardMetric(obs.MShardAcquires, idx))
		s.releases = p.metrics.Counter(obs.ShardMetric(obs.MShardReleases, idx))
		s.contended = p.metrics.Counter(obs.ShardMetric(obs.MShardContended, idx))
		s.combined = p.metrics.Counter(obs.ShardMetric(obs.MShardCombined, idx))
		s.combineWait = p.metrics.Histogram(obs.ShardMetric(obs.MShardCombineWaitNS, idx))
		s.parkWakeC = p.metrics.Counter(obs.ShardMetric(obs.MParkWakeups, idx))
		s.parkDirectC = p.metrics.Counter(obs.ShardMetric(obs.MParkDirect, idx))
		s.parkSpurC = p.metrics.Counter(obs.ShardMetric(obs.MParkSpurious, idx))
		if p.cfg.fast.Readers {
			s.fastHitC = p.metrics.Counter(obs.ShardMetric(obs.MFastPathHit, idx))
			s.fastMissC = p.metrics.Counter(obs.ShardMetric(obs.MFastPathMiss, idx))
			s.fastRevokedC = p.metrics.Counter(obs.ShardMetric(obs.MFastPathRevoked, idx))
			s.fastMigratedC = p.metrics.Counter(obs.ShardMetric(obs.MFastPathMigrated, idx))
		}
		if p.cfg.fast.Writers {
			s.fastWHitC = p.metrics.Counter(obs.ShardMetric(obs.MFastWriteHit, idx))
			s.fastWMissC = p.metrics.Counter(obs.ShardMetric(obs.MFastWriteMiss, idx))
			s.fastWRevokedC = p.metrics.Counter(obs.ShardMetric(obs.MFastWriteRevoked, idx))
			s.fastWMigratedC = p.metrics.Counter(obs.ShardMetric(obs.MFastWriteMigrated, idx))
			s.fastWStormC = p.metrics.Counter(obs.ShardMetric(obs.MFastWriteStorm, idx))
		}
	}
	sinks := obs.Sinks{Flight: p.flight, Shard: idx, Metrics: p.protoObs, Attribution: p.attr}
	if p.wdogs != nil {
		sinks.Watchdog = p.wdogs[idx]
	}
	s.rsm.SetWakeHook(s.wake)
	if sinks != (obs.Sinks{Shard: idx}) { // some option attached a sink
		s.pipe = obs.NewPipeline(sinks)
		s.rsm.SetObserver(s.pipe)
	}
	return s
}

func (s *shard) tick() core.Time {
	s.clock++
	return s.clock
}

// wake is the RSM's wake hook: it runs under s.mu (the RSM is only invoked
// with the mutex held) for every request the current invocation satisfied,
// granted or canceled. Wakeups are batched: the waiters are collected here and
// signaled by unlock after the mutex is released, so one Release that
// satisfies many requests signals them all outside its critical section and
// woken goroutines never collide with the signaler on s.mu.
func (s *shard) wake(id core.ReqID) {
	w, ok := s.waiters[id]
	if !ok {
		return
	}
	delete(s.waiters, id)
	if s.sigTail == nil {
		s.sigHead = w
	} else {
		s.sigTail.next = w
	}
	s.sigTail = w
}

// pipeline returns the shard's pipeline, creating an empty one for a tracer
// to ride on — and making it the RSM's observer — if no observability option
// built it. Caller holds s.mu.
func (s *shard) pipeline() *obs.Pipeline {
	if s.pipe == nil {
		s.pipe = obs.NewPipeline(obs.Sinks{})
		s.rsm.SetObserver(s.pipe)
	}
	return s.pipe
}

func (s *shard) selfCheck() {
	if !s.p.cfg.selfCheck {
		return
	}
	if v := s.rsm.CheckInvariants(); len(v) != 0 {
		panic("rwrnlp: invariant violated: " + v[0])
	}
}

// drainOps executes every published op. Caller holds s.mu.
func (s *shard) drainOps() {
	for op := s.ops.Swap(nil); op != nil; {
		next := op.next
		s.runOp(op, nil, nil)
		op = next
	}
}

// syncLive mirrors the RSM's incomplete count into rsmLive for the writer
// fast path's lock-free admission checks. Caller holds s.mu. A stale-high
// reading (a completion not yet mirrored) only costs a conservative miss;
// stale-low is impossible because every issuance syncs before its result is
// published (runOp before op.done, unlock before releasing the mutex) and
// the issuer's rsmIntent covers the window before that.
func (s *shard) syncLive() {
	if s.fastW {
		s.rsmLive.Store(int64(s.rsm.IncompleteLen()))
	}
}

// unlock leaves the shard's critical section: it combines any ops published
// while the lock was held, re-mirrors rsmLive, releases the mutex, and only
// then signals the batch of waiters satisfied during the section — exactly
// one wake per entitled grant, delivered outside the mutex so woken
// goroutines never collide with the signaler on s.mu. Every code path that
// locks s.mu must exit through unlock (or the deferred signals would be
// lost). Each delivery outcome feeds the park accounting counters, so
// "wakeups ≈ grants" is checkable from the metrics plane (see park.go).
func (s *shard) unlock() {
	s.drainOps()
	s.syncLive()
	w := s.sigHead
	s.sigHead, s.sigTail = nil, nil
	s.mu.Unlock()
	for w != nil {
		// Unlink first: once signaled, the waiter is its owner's to recycle.
		next := w.next
		w.next = nil
		switch w.signal() {
		case parkWokeParked:
			if s.parkWakeC != nil {
				s.parkWakeC.Inc()
			}
		case parkDirect:
			if s.parkDirectC != nil {
				s.parkDirectC.Inc()
			}
		case parkSpurious:
			if s.parkSpurC != nil {
				s.parkSpurC.Inc()
			}
		}
		w = next
	}
}

// runOp issues one request and, unless it is already granted, registers the
// waiter its grant will be signaled on — the one place waiters are minted.
// issue and granted are a request's (see request.run); nil selects a plain
// acquisition of op's footprint, which is all a published op can be. Caller
// holds s.mu. rsmLive is mirrored before done is published: the issuer's
// slowExit must not run while its issuance is still invisible to the writer
// fast path.
func (s *shard) runOp(op *issueOp, issue func() (core.ReqID, error), granted func(core.ReqID) bool) {
	if issue != nil {
		op.id, op.err = issue()
	} else {
		op.id, op.err = s.rsm.Issue(s.tick(), op.read, op.write, op.tag)
	}
	if op.err == nil && !s.holds(op.id, granted) {
		op.w = newWaiter()
		s.waiters[op.id] = op.w
	}
	s.syncLive()
	s.selfCheck()
	op.done.Store(true)
}

// holds evaluates a request's granted predicate; nil asks whether the whole
// request is satisfied. Caller holds s.mu.
func (s *shard) holds(id core.ReqID, granted func(core.ReqID) bool) bool {
	if granted != nil {
		return granted(id)
	}
	st, err := s.rsm.State(id)
	return err == nil && st == core.StateSatisfied
}

// combine issues one plain request on this shard, returning the request ID
// and a waiter to park on (nil when satisfied synchronously). An uncontended
// caller takes the mutex directly; a contended one publishes an op for the
// current holder to combine, falling back to the mutex if no holder picks it
// up in time (the fallback drains the stack itself, so an op is always
// executed after at most one lock acquisition).
func (s *shard) combine(read, write []ResourceID, tag any) (core.ReqID, *waiter, error) {
	if s.acquires != nil {
		s.acquires.Inc()
	}
	if s.mu.TryLock() {
		op := issueOp{read: read, write: write, tag: tag}
		s.runOp(&op, nil, nil)
		s.unlock()
		return op.id, op.w, op.err
	}
	if s.contended != nil {
		s.contended.Inc()
	}
	var start int64
	if s.combineWait != nil {
		start = time.Now().UnixNano()
	}
	op := opPool.Get().(*issueOp)
	op.read, op.write, op.tag = read, write, tag
	for {
		old := s.ops.Load()
		op.next = old
		if s.ops.CompareAndSwap(old, op) {
			break
		}
	}
	combined := false
	for i := 0; i < 128; i++ {
		if combined = op.done.Load(); combined {
			break
		}
		runtime.Gosched()
	}
	if combined {
		// A lock holder combined the op on our behalf.
		if s.combined != nil {
			s.combined.Inc()
		}
	} else {
		// Fallback: take the mutex. Holders drain the stack before releasing,
		// so once we hold it the op is either done or still in the stack.
		s.mu.Lock()
		if !op.done.Load() {
			s.drainOps()
		}
		s.unlock()
	}
	if s.combineWait != nil {
		s.combineWait.Observe(time.Now().UnixNano() - start)
	}
	// done was the executor's last touch of the op (drainOps reads next before
	// it runs an op), so it is ours alone again: take the results and recycle.
	id, w, err := op.id, op.w, op.err
	*op = issueOp{}
	opPool.Put(op)
	return id, w, err
}

// release completes a request, mapping the RSM's unknown-request report to
// the deterministic ErrAlreadyReleased (request IDs are never reused, so a
// second completion of the same ID always lands there).
func (s *shard) release(id core.ReqID) error {
	if s.releases != nil {
		s.releases.Inc()
	}
	s.mu.Lock()
	err := s.rsm.Complete(s.tick(), id)
	s.selfCheck()
	s.unlock()
	if errors.Is(err, core.ErrUnknownRequest) {
		return ErrAlreadyReleased
	}
	return err
}

// request is the lifecycle of one blocking RSM request (or incremental ask)
// — the sequence every blocking entry point shares:
//
//	close the writer gate (write-capable requests only) → announce the
//	issuance (slowEnter) → issue under s.mu, mirror rsmLive, register a
//	waiter unless already granted (runOp) → retract the announcement
//	(slowExit) → park until signaled or ctx is done (await) → on failure
//	reopen the gate.
//
// On success a gate the request closed stays closed: the holder's release
// path reopens it once the request's RSM locks are gone. A request lives on
// its caller's stack; what differs between the request forms is passed to
// run as funcs, which run only calls (kept out of the struct so that they
// stay on the caller's stack too).
type request struct {
	s    *shard
	gate bool // write-capable: holds the writer gate from before its issuance

	// A plain request's footprint and tag, issued by flat combining; unused
	// when run is given an issue func.
	read, write []ResourceID
	tag         any

	id        core.ReqID // the wake key, set by run
	blockedAt int64      // Protocol.nowNS when the request parked; 0 if it never did
}

// run drives r to its grant. All three funcs run under s.mu:
//
//   - issue enters the request (or ask) into the RSM and returns the ID its
//     grant is signaled on; nil issues r's plain footprint;
//   - granted reports whether what the caller waits for is held; nil asks
//     whether the whole request is satisfied;
//   - withdraw removes the pending request (or ask) from the RSM when ctx
//     cancellation wins; nil cancels the whole request.
//
// parked reports whether the request had to wait; an error with parked false
// came from the issuance itself.
func (r *request) run(ctx context.Context, issue func() (core.ReqID, error), granted func(core.ReqID) bool, withdraw func(core.ReqID) error) (parked bool, err error) {
	s := r.s
	if r.gate {
		s.writerEnter()
	}
	// Announce the issuance to the writer fast path (and migrate a fast
	// writer holding the word) before touching the mutex; the intent stays
	// up until the issued request is mirrored in rsmLive, which runOp does
	// before it reports the op done.
	s.slowEnter()
	var w *waiter
	if issue == nil {
		r.id, w, err = s.combine(r.read, r.write, r.tag)
	} else {
		var op issueOp
		s.mu.Lock()
		s.runOp(&op, issue, granted)
		s.unlock()
		r.id, w, err = op.id, op.w, op.err
	}
	s.slowExit()
	if err == nil && w != nil {
		parked = true
		r.blockedAt = s.p.nowNS()
		err = r.await(ctx, w, granted, withdraw)
	}
	if err != nil && r.gate {
		s.writerExit()
	}
	return parked, err
}

// await parks on w until it is signaled or ctx is done. A nil or
// non-cancelable ctx parks unconditionally. On cancellation the
// signal-vs-cancel race settles on the waiter's state word: if the cancel
// CAS loses, the wakeup token is in flight — consume it and own the grant;
// if it wins, no signal will ever be delivered (a late one is dropped as
// spurious) and the request's true state is resolved under s.mu — granted
// reports satisfaction whose batched signal had not landed before the CAS,
// and otherwise the request (or ask) is withdrawn, returning ctx.Err().
func (r *request) await(ctx context.Context, w *waiter, granted func(core.ReqID) bool, withdraw func(core.ReqID) error) error {
	s := r.s
	if ctx == nil || ctx.Done() == nil {
		w.wait(s.p.cfg.spin)
		w.recycle()
		return nil
	}
	if !w.park(false) {
		w.recycle() // direct delivery: the signaler's CAS was its last touch
		return nil
	}
	select {
	case <-w.sema:
		w.recycle()
		return nil
	case <-ctx.Done():
		if !w.cancel() {
			// The signal's CAS landed first: its token is in flight.
			<-w.sema
			w.recycle()
			return nil
		}
	}
	s.mu.Lock()
	delete(s.waiters, r.id)
	if s.holds(r.id, granted) {
		s.unlock()
		return nil
	}
	var err error
	if withdraw != nil {
		err = withdraw(r.id)
	} else {
		err = s.rsm.CancelRequest(s.tick(), r.id)
	}
	s.selfCheck()
	s.unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
