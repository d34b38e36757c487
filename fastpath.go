package rwrnlp

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/rtsync/rwrnlp/internal/core"
)

// BRAVO-style reader fast path (Dice & Kogan, USENIX ATC'19, adapted to the
// R/W RNLP's component structure): an all-read acquisition confined to one
// component publishes its read set into a padded per-shard slot array with
// atomic operations only — no shard mutex, no flat-combining stack, no RSM
// invocation — provided the shard's writer gate is open.
//
// Writers make the two planes meet by MIGRATION rather than by waiting:
// writerEnter closes the gate (no new fast readers) and then materializes
// every in-flight fast reader as a surrogate read request in the RSM,
// before the writer itself issues. From that point the RSM's grant
// decisions are exactly those of the all-slow baseline — the writer queues
// behind the surrogate reads under the unchanged Rules R1–R2/W1–W2, later
// readers queue behind the entitled writer (phase-fairness), and partial
// grants (incremental, upgradeable) see precisely the read locks they would
// have seen had every fast reader gone through the RSM. A migrated reader's
// Release completes its surrogate through the RSM, waking whatever became
// eligible; an unmigrated reader's Release stays a single CAS.
//
// Admission safety (proof sketch in IMPLEMENTATION.md): the gate is >0 for
// every write-capable request from before its RSM issuance until after its
// completion, so a reader admitted with the gate at zero runs while the
// component's RSM has no incomplete write-capable request — precisely
// core.WriterFree, under which Rule R1 would satisfy the read immediately
// with zero acquisition delay. The same argument makes migration sound: an
// ADMITTED reader's surrogate is always issued into a writer-free RSM (the
// reader's gate re-check read zero, so every writer's gate-close — and
// hence its pre-issue migration scan — is ordered after the fully published
// claim, and the earliest such scan runs before any of those writers
// issues), so it is satisfied immediately and the RSM never reports a fast
// reader as waiting while it is inside its critical section. The Theorem
// 1/2 envelopes of RSM-served requests are therefore unchanged — a writer
// waits for a migrated fast read exactly as it would for the equivalent
// slow read. A writer may also scan a DOOMED claim — one whose reader is
// between its slot CAS and a failing gate re-check — and record a surrogate
// for it (possibly with a partially published mask, possibly waiting behind
// an already-issued writer); such surrogates are transient: the reader's
// retraction retires them through the same exactly-once handshake a release
// uses, completing satisfied surrogates and canceling waiting ones.
//
// Under sustained write pressure (a long streak of gate-closed misses) the
// path revokes itself and re-enables only after a writer-free grace period
// (hysteresis), so write-heavy phases stop paying the publish/retract and
// migration overhead.
//
// The WRITER plane (WithFastPath(FastPathConfig{Writers: true}), on by
// default) applies the same construction to uncontended write-capable
// requests: when the shard's RSM is empty (rsmLive), no issuer is between
// its intent announcement and its issuance (rsmIntent), no write-capable
// request holds the reader gate, and no fast reader claims a slot, a
// single-part write-capable Acquire claims the WHOLE component with one CAS
// on the per-shard writer word — no mutex, no RSM. The claim closes the
// reader gate for its duration (fast readers cannot admit past a fast
// writer) and publishes its read/write masks beside the word. The first
// conflicting request — any issuer, reader or writer, slow or fast-missed —
// revokes it BRAVO-style: slowEnter announces intent and, seeing the word
// held, materializes the fast writer as a surrogate write request in the
// RSM (migrateFastWriter) before issuing its own request. The surrogate is
// the FIRST request to enter the empty RSM, is satisfied immediately, and
// holds exactly the fast writer's footprint — so from that point grant
// decisions match the all-slow baseline exactly, mirroring the reader-
// migration argument above; see IMPLEMENTATION.md, "Writer fast path".
//
// Striping: reader claims are assigned to slots per-P — the probe starts
// from a goroutine-local hint (derived from the goroutine's stack address,
// no runtime_procPin or TLS) and claim sequences are minted from a per-slot
// counter, so an uncontended read's entire fast path touches a single
// padded cache line.
//
// Visibility: a fast read that never meets a writer is invisible to Stats,
// Snapshot, and any attached event observer (the per-shard fastpath_*
// counters are its only telemetry); once migrated it appears as an ordinary
// satisfied read request tagged fastSurrogateTag. Use
// WithFastPath(FastPathConfig{}) when full event-stream fidelity matters
// more than reader throughput.
const (
	// fastSlotWords bounds the inline read-set mask: resources 0 …
	// 64·fastSlotWords−1. Reads naming a higher ID fall back to the RSM.
	fastSlotWords   = 4
	fastMaxResource = 64 * fastSlotWords

	// fastRevokeMisses is the streak of conflict misses after which a
	// fast-path plane revokes itself; fastGraceReads the number of
	// fast-eligible acquisitions that must subsequently find the conflict
	// gone (on the RSM path) before the plane re-enables.
	fastRevokeMisses = 128
	fastGraceReads   = 64

	// fastSeqSlotBits is how many low bits of a per-P claim sequence encode
	// the slot index (as idx+1, so a sequence is never zero). Slot counts are
	// clamped to 64, so 7 bits suffice; per-slot claim counters then mint
	// globally unique, never-reused sequences without a shared counter word.
	fastSeqSlotBits = 7
)

// fastSurrogateTag marks RSM read requests materialized from in-flight
// fast readers by writer migration, so snapshots and traces can tell the
// two planes apart.
const fastSurrogateTag = "fastpath-reader"

// fastWriterSurrogateTag marks the RSM write request materialized from a
// fast-path writer by the first contending request.
const fastWriterSurrogateTag = "fastpath-writer"

// fastSlot is one visible-reader slot. seq is 0 when free, else the unique
// claim sequence of the holding reader; set is the holder's read-set mask,
// published after the claim and before the gate re-check (so, by sequential
// consistency, any writer whose gate-close the holder missed reads the
// complete mask). migSeq is the claim sequence most recently migrated into
// the RSM — written only under the shard mutex by migrating writers, and
// compared against the releasing holder's own sequence to decide whether a
// surrogate must be completed. The padding keeps neighboring slots off each
// other's cache lines — readers on different CPUs claim different slots and
// must not false share.
type fastSlot struct {
	seq    atomic.Uint64
	set    [fastSlotWords]atomic.Uint64
	migSeq atomic.Uint64
	// claims mints this slot's claim sequences
	// (seq = claims<<fastSeqSlotBits | idx+1), keeping the whole claim
	// protocol on this one cache line.
	claims atomic.Uint64
	_      [72]byte
}

// fastSlotCount sizes the slot array to the parallelism of the machine
// (rounded up to a power of two so claim probing can mask instead of mod).
func fastSlotCount() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// initFastPath allocates the shard's reader slots and surrogate tables; left
// uninitialized (nil fastSlots disables every fast-path hook) when both
// planes are off.
func (s *shard) initFastPath() {
	s.fastSlots = make([]fastSlot, fastSlotCount())
	s.fastMask = len(s.fastSlots) - 1
	s.fastSurr = make(map[uint64]core.ReqID)
	s.fastWSurr = make(map[uint64]core.ReqID)
}

// fastAcquire attempts the reader fast path for an all-read footprint that
// split has already validated and confined to this shard. It returns the
// minted token and true on a hit; on a miss (gate closed, path revoked,
// slots full, or a resource beyond the inline mask) it records the
// revocation hysteresis progress and the caller falls back to the RSM.
func (s *shard) fastAcquire(read []ResourceID) (Token, bool) {
	gateClosed := s.fastWriters.Load() != 0
	if gateClosed || s.fastRHyst.revoked.Load() {
		s.fastReadMissed(gateClosed)
		return Token{}, false
	}
	mask, ok := encodeMask(read)
	if !ok {
		s.fastReadMissed(false)
		return Token{}, false
	}
	// Per-P striping: probe from a goroutine-local hint so concurrent readers
	// land on different padded slots, and mint the claim sequence from the
	// slot's own counter — the uncontended hot path touches no shared word at
	// all. A failed probe wastes one counter increment on that slot, which is
	// harmless: sequences only ever need to be unique and non-zero, and the
	// slot index in the low bits keeps counters of different slots in
	// disjoint sequence spaces.
	var seq uint64
	slot := -1
	h := fastHint() & s.fastMask
	for i := 0; i <= s.fastMask; i++ {
		idx := (h + i) & s.fastMask
		sl := &s.fastSlots[idx]
		cand := sl.claims.Add(1)<<fastSeqSlotBits | uint64(idx+1)
		if sl.seq.CompareAndSwap(0, cand) {
			slot, seq = idx, cand
			break
		}
	}
	if slot < 0 {
		s.fastReadMissed(false)
		return Token{}, false
	}
	sl := &s.fastSlots[slot]
	for w, v := range mask {
		sl.set[w].Store(v)
	}
	// Publication/re-check protocol: the read set is stored before this gate
	// load, and writers store the gate before scanning the slots, so at
	// least one side sees the other — either we observe the writer here and
	// retract (the writer may then read a stale or partial mask, harmlessly:
	// we never enter the critical section), or the writer's scan observes
	// our claim with the complete mask and migrates it.
	if s.fastWriters.Load() != 0 {
		sl.seq.Store(0)
		// A migrating writer may have scanned the claim between our CAS and
		// this retraction and recorded a surrogate for it; retire it, or the
		// RSM holds a phantom read lock forever. Any error is a structural
		// bug the selfCheck would catch — the caller falls back to the RSM
		// either way.
		_ = s.retireSurrogate(sl, seq)
		s.fastReadMissed(true)
		return Token{}, false
	}
	if s.fastHitC != nil {
		s.fastHitC.Inc()
	}
	s.fastRHyst.hit()
	return Token{s: s, fastSeq: seq, fastSlot: int32(slot)}, true
}

// fastRelease ends a fast-path critical section: the slot is freed by
// CASing the token's claim sequence back to zero, which doubles as the
// double-release check (sequences are never reused, so a second release —
// even after the slot was re-claimed — always fails the CAS). If a writer
// migrated this claim into the RSM, the surrogate read is completed under
// the shard mutex, satisfying whatever requests were queued behind it.
func (s *shard) fastRelease(t Token) error {
	sl := &s.fastSlots[t.fastSlot]
	if !sl.seq.CompareAndSwap(t.fastSeq, 0) {
		return ErrAlreadyReleased
	}
	return s.retireSurrogate(sl, t.fastSeq)
}

// retireSurrogate retires the surrogate RSM request a migrating writer may
// have recorded for the withdrawn claim seq (released after its critical
// section, or retracted by the admission re-check). By sequential
// consistency the migSeq load is ordered after the claim withdrawal above,
// and a migrating writer stores migSeq before re-checking seq — so either
// the writer sees the withdrawal and retires the surrogate itself, or we
// see migSeq here. The map entry is deleted under s.mu by whichever side
// gets there first, so the retirement happens exactly once. A surrogate for
// an admitted reader is always satisfied (it was issued into a writer-free
// RSM) and is completed; one recorded for a doomed, mid-publication claim
// may still be waiting behind an earlier writer and is canceled instead.
func (s *shard) retireSurrogate(sl *fastSlot, seq uint64) error {
	if sl.migSeq.Load() != seq {
		return nil
	}
	return s.retireRecorded(s.fastSurr, seq)
}

// retireRecorded is the locked half of both planes' exactly-once surrogate
// retirement: whichever side — the withdrawing claimant or the migrating
// contender — finds seq still recorded in surr deletes the entry and retires
// the surrogate; the other finds nothing to do.
func (s *shard) retireRecorded(surr map[uint64]core.ReqID, seq uint64) error {
	s.mu.Lock()
	id, ok := surr[seq]
	var err error
	if ok {
		delete(surr, seq)
		err = s.completeOrCancel(id)
		s.selfCheck()
	}
	s.unlock()
	return err
}

// completeOrCancel retires one surrogate: a satisfied one is completed,
// waking whatever queued behind it; one still waiting (recorded for a doomed
// claim) is canceled. Caller holds s.mu.
func (s *shard) completeOrCancel(id core.ReqID) error {
	if st, err := s.rsm.State(id); err == nil && st == core.StateSatisfied {
		return s.rsm.Complete(s.tick(), id)
	}
	return s.rsm.CancelRequest(s.tick(), id)
}

// hysteresis is one fast-path plane's revocation state: revoked latches
// after a streak of fastRevokeMisses conflict misses and clears once
// fastGraceReads fast-eligible acquisitions have found the conflict gone.
type hysteresis struct {
	revoked    atomic.Bool
	grace      atomic.Int64
	missStreak atomic.Int64
}

// conflict records a conflict miss and reports whether it revoked the plane.
func (h *hysteresis) conflict() bool {
	if !h.revoked.Load() && h.missStreak.Add(1) >= fastRevokeMisses && !h.revoked.Swap(true) {
		h.grace.Store(fastGraceReads)
		return true
	}
	return false
}

// calm records a miss that was not a conflict and reports whether the plane
// is revoked, i.e. whether a grace countdown (graceOver) is due once the
// caller has checked that the conflict is really gone.
func (h *hysteresis) calm() bool {
	h.missStreak.Store(0)
	return h.revoked.Load()
}

// graceOver counts one conflict-free observation against the grace period
// and reports whether it has run out.
func (h *hysteresis) graceOver() bool { return h.grace.Add(-1) <= 0 }

// hit records a fast-path hit.
func (h *hysteresis) hit() {
	if h.missStreak.Load() != 0 {
		h.missStreak.Store(0)
	}
}

// fastReadMissed records a fast-eligible read served by the RSM, driving the
// revocation hysteresis: a streak of fastRevokeMisses gate-closed misses
// revokes the path (sustained write pressure — stop paying the
// publish/retract overhead), and fastGraceReads subsequent misses that find
// the component writer-free re-enable it. (A writer racing the re-enable is
// harmless: admission re-checks the gate after claiming a slot.)
func (s *shard) fastReadMissed(gateClosed bool) {
	if s.fastMissC != nil {
		s.fastMissC.Inc()
	}
	if gateClosed {
		if s.fastRHyst.conflict() && s.fastRevokedC != nil {
			s.fastRevokedC.Inc()
		}
		return
	}
	if s.fastRHyst.calm() && s.fastWriters.Load() == 0 && s.fastRHyst.graceOver() {
		s.fastRHyst.revoked.Store(false)
	}
}

// fastHint derives a goroutine-local slot hint from the current stack
// address (same idiom as obs.Metrics' counter striping): goroutines on
// different Ps run on different stacks, so after the >>9 shift the hint
// spreads claims across slots without runtime_procPin or TLS. The hint only
// seeds the probe start — correctness never depends on its distribution.
func fastHint() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 9)
}

// writerEnter closes the shard's writer gate on behalf of a write-capable
// request about to be issued, then migrates every in-flight fast reader
// into the RSM. It must be called before the request reaches the RSM and be
// balanced by writerExit after the request completes; the gate counter
// being >0 across that whole span is what makes fast-path admission sound,
// and migrating before issuing is what makes the RSM's grant decisions
// identical to the all-slow baseline. No-op when the fast path is disabled.
func (s *shard) writerEnter() {
	if s.fastSlots == nil {
		return
	}
	s.fastWriters.Add(1)
	s.migrateFast()
}

// writerExit reopens the gate after the write-capable request completed (its
// RSM locks are released).
func (s *shard) writerExit() {
	if s.fastSlots == nil {
		return
	}
	s.fastWriters.Add(-1)
}

// migrateFast issues a surrogate RSM read request for every claimed slot
// not already migrated. Called with the gate closed, so the slot population
// can only shrink underneath the scan. Each surrogate is issued into a
// writer-free RSM (see the package comment's induction) and is therefore
// satisfied immediately; if the holding reader releases while the surrogate
// is being recorded, the re-check completes it on the spot.
func (s *shard) migrateFast() {
	if !s.anyFastReader() {
		return
	}
	s.mu.Lock()
	for i := range s.fastSlots {
		sl := &s.fastSlots[i]
		seq := sl.seq.Load()
		if seq == 0 || sl.migSeq.Load() == seq {
			continue
		}
		id, err := s.rsm.Issue(s.tick(), sl.resources(), nil, fastSurrogateTag)
		if err != nil {
			continue
		}
		s.fastSurr[seq] = id
		sl.migSeq.Store(seq)
		if sl.seq.Load() != seq {
			// The holder released (or retracted) between our first look and
			// the migSeq store and cannot have seen it; retire the surrogate
			// here. It may be waiting rather than satisfied if the claim was
			// a doomed mid-publication one scanned while an earlier writer
			// was already in the RSM.
			delete(s.fastSurr, seq)
			_ = s.completeOrCancel(id)
		} else if s.fastMigratedC != nil {
			s.fastMigratedC.Inc()
		}
	}
	s.selfCheck()
	s.unlock()
}

// resources decodes the slot's published read-set mask.
func (sl *fastSlot) resources() []ResourceID {
	return decodeMask(&sl.set)
}

// encodeMask builds the inline footprint mask of ids; false if one of them
// lies beyond it (the request then falls back to the RSM).
func encodeMask(ids []ResourceID) (mask [fastSlotWords]uint64, ok bool) {
	for _, a := range ids {
		if int(a) >= fastMaxResource {
			return mask, false
		}
		mask[int(a)>>6] |= 1 << (uint(a) & 63)
	}
	return mask, true
}

// decodeMask decodes a published resource mask into resource IDs.
func decodeMask(set *[fastSlotWords]atomic.Uint64) []ResourceID {
	var out []ResourceID
	for w := 0; w < fastSlotWords; w++ {
		m := set[w].Load()
		for m != 0 {
			b := bits.TrailingZeros64(m)
			out = append(out, ResourceID(w*64+b))
			m &= m - 1
		}
	}
	return out
}

// ---- Writer plane ----------------------------------------------------------

// fastWriteBusy is the cheap component-busy predicate of the writer plane:
// an RSM with incomplete requests (rsmLive), an issuer between intent and
// issuance (rsmIntent), any writer-gate holder — slow write-capable request
// or another fast writer — or a claimed reader slot all disqualify a
// single-CAS claim.
func (s *shard) fastWriteBusy() bool {
	return s.rsmLive.Load() != 0 || s.rsmIntent.Load() != 0 ||
		s.fastWriters.Load() != 0 || s.fastWWord.Load() != 0 || s.anyFastReader()
}

// anyFastReader reports whether any reader slot is currently claimed.
func (s *shard) anyFastReader() bool {
	for i := range s.fastSlots {
		if s.fastSlots[i].seq.Load() != 0 {
			return true
		}
	}
	return false
}

// fastWriteAcquire attempts the single-CAS writer fast path for a
// write-capable footprint that split has already confined to this shard. On
// a hit the claim owns the whole component: the writer word carries the
// claim sequence, the masks beside it carry the footprint for migration, and
// the reader gate is held closed for the critical section. On a miss the
// caller falls back to the RSM.
//
// Admission protocol (the Dekker pairing with slowEnter): claim the word,
// publish the masks, close the reader gate, THEN re-check that the
// component is still idle. Every RSM issuer announces intent (rsmIntent)
// before scanning the word, so by sequential consistency either our
// re-check observes the issuer (and we retract) or the issuer's scan
// observes our fully published claim (and migrates it). The same argument
// pairs the gate-close with the reader plane's slot-publish/gate-re-check.
func (s *shard) fastWriteAcquire(read, write []ResourceID) (Token, bool) {
	if s.fastWHyst.revoked.Load() {
		s.fastWriteMissed(s.fastWriteBusy())
		return Token{}, false
	}
	if s.fastWriteBusy() {
		s.fastWriteMissed(true)
		return Token{}, false
	}
	rmask, rok := encodeMask(read)
	wmask, wok := encodeMask(write)
	if !rok || !wok {
		s.fastWriteMissed(false)
		return Token{}, false
	}
	seq := s.fastWSeq.Add(1)
	if !s.fastWWord.CompareAndSwap(0, seq) {
		s.fastWriteMissed(true)
		return Token{}, false
	}
	for w := range rmask {
		s.fastWRead[w].Store(rmask[w])
		s.fastWWrite[w].Store(wmask[w])
	}
	s.fastWriters.Add(1)
	// Re-check: the gate must count exactly us (a slow write-capable request
	// between writerEnter and writerExit holds it too, and stays invisible to
	// rsmLive until issued), the RSM must still be empty with no issuer in
	// flight, and no fast reader may hold a slot (a reader admitted before
	// our gate-close is ordered before this scan and is seen here; one that
	// claims after our gate-close sees the gate and retracts).
	if s.fastWriters.Load() != 1 || s.rsmLive.Load() != 0 ||
		s.rsmIntent.Load() != 0 || s.anyFastReader() {
		s.fastWWord.Store(0)
		// A contender may have scanned the claim before the retraction and
		// recorded a surrogate for it; retire it, or the RSM holds a phantom
		// write lock forever.
		_ = s.retireWriteSurrogate(seq)
		s.fastWriters.Add(-1)
		s.fastWriteMissed(true)
		return Token{}, false
	}
	if s.fastWHitC != nil {
		s.fastWHitC.Inc()
	}
	s.fastWOps.Add(1)
	s.fastWHyst.hit()
	return Token{s: s, fastW: seq}, true
}

// fastWriteRelease ends a fast writer's critical section. The word CAS
// doubles as the double-release check (claim sequences are never reused, and
// contenders never modify the word). Ordering is soundness-critical: the
// surrogate a contender may have recorded is retired BEFORE the reader gate
// reopens — otherwise a fast reader could be admitted while the surrogate
// still write-locks the component in the RSM.
func (s *shard) fastWriteRelease(t Token) error {
	if !s.fastWWord.CompareAndSwap(t.fastW, 0) {
		return ErrAlreadyReleased
	}
	err := s.retireWriteSurrogate(t.fastW)
	s.fastWriters.Add(-1)
	return err
}

// retireWriteSurrogate retires the surrogate RSM write request a contender
// may have recorded for the withdrawn claim seq (released, or retracted by
// the admission re-check). The handshake is the reader plane's: the fastWMig
// load is ordered after the word withdrawal, a migrating contender stores
// fastWMig before re-checking the word, so at least one side sees the other;
// the map delete under s.mu arbitrates exactly-once retirement. A surrogate
// for an admitted fast writer is always satisfied (it was the first request
// into an empty RSM) and is completed — waking whatever queued behind it;
// one recorded for a doomed, mid-retraction claim may be waiting and is
// canceled instead.
func (s *shard) retireWriteSurrogate(seq uint64) error {
	if s.fastWMig.Load() != seq {
		return nil
	}
	return s.retireRecorded(s.fastWSurr, seq)
}

// slowEnter announces an imminent RSM issuance on this shard (any kind:
// read, write, incremental, upgradeable) and, if a fast writer holds the
// word, materializes it into the RSM first. It must be called before the
// issuing path takes s.mu and be balanced by slowExit only after the
// issuance is reflected in rsmLive (runOp and unlock store rsmLive before
// publishing completion), so there is no instant where a fast writer can
// observe "no intent, empty RSM" while a conflicting request is in flight.
// No-op when the writer plane is off.
func (s *shard) slowEnter() {
	if !s.fastW {
		return
	}
	s.rsmIntent.Add(1)
	if s.fastWWord.Load() != 0 {
		s.migrateFastWriter()
	}
}

// slowExit retracts the slowEnter announcement.
func (s *shard) slowExit() {
	if !s.fastW {
		return
	}
	s.rsmIntent.Add(-1)
}

// migrateFastWriter issues a surrogate RSM write request for the current
// writer-word claim, if any and not already migrated. The surrogate is the
// first request to enter the (empty — see the package comment's induction)
// RSM, so it is satisfied immediately and holds exactly the fast writer's
// published footprint; the caller's own request then queues behind it
// exactly as it would behind the equivalent slow writer. If the claim is
// withdrawn while the surrogate is being recorded, the re-check retires it
// on the spot. A doomed mid-retraction claim may be scanned with a partial
// (even empty) mask; an empty surrogate fails Issue and is skipped — the
// retracting writer is not in a critical section, so nothing is lost.
func (s *shard) migrateFastWriter() {
	s.mu.Lock()
	seq := s.fastWWord.Load()
	if seq == 0 || s.fastWMig.Load() == seq {
		s.unlock()
		return
	}
	id, err := s.rsm.Issue(s.tick(), decodeMask(&s.fastWRead), decodeMask(&s.fastWWrite), fastWriterSurrogateTag)
	if err != nil {
		s.unlock()
		return
	}
	s.fastWSurr[seq] = id
	s.fastWMig.Store(seq)
	if s.fastWWord.Load() != seq {
		// The claim was withdrawn between our first look and the fastWMig
		// store and cannot have seen it; retire the surrogate here.
		delete(s.fastWSurr, seq)
		_ = s.completeOrCancel(id)
	} else if s.fastWMigratedC != nil {
		s.fastWMigratedC.Inc()
	}
	s.selfCheck()
	s.unlock()
}

// fastWriteMissed records a fast-eligible write-capable acquisition served
// by the RSM, driving the writer plane's revocation hysteresis exactly like
// the reader plane's: a streak of fastRevokeMisses busy misses revokes the
// plane, and fastGraceReads subsequent misses that find the component fully
// idle re-enable it. A revocation that lands within twice the revocation
// budget of the previous re-enable counts as a revocation storm — the
// plane is thrashing between the two states and amortizing nothing.
func (s *shard) fastWriteMissed(busy bool) {
	if s.fastWMissC != nil {
		s.fastWMissC.Inc()
	}
	s.fastWOps.Add(1)
	if busy {
		if s.fastWHyst.conflict() {
			if s.fastWRevokedC != nil {
				s.fastWRevokedC.Inc()
			}
			if s.fastWStormC != nil && s.fastWReenabled.Load() && s.fastWOps.Load() < 2*fastRevokeMisses {
				s.fastWStormC.Inc()
			}
		}
		return
	}
	if s.fastWHyst.calm() && !s.fastWriteBusy() && s.fastWHyst.graceOver() {
		s.fastWReenabled.Store(true)
		s.fastWOps.Store(0)
		s.fastWHyst.revoked.Store(false)
	}
}
