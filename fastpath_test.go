package rwrnlp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/internal/obs"
	"github.com/rtsync/rwrnlp/internal/trace"
)

// fastCounter reads one shard-labeled fastpath counter from p's metrics.
func fastCounter(t *testing.T, p *Protocol, name string, shard int) int64 {
	t.Helper()
	if p.Metrics() == nil {
		t.Fatal("protocol built without metrics")
	}
	return p.Metrics().Snapshot().Counters[obs.ShardMetric(name, shard)]
}

// A fast-path hit never reaches the RSM: no issued/completed protocol
// events, no shard_acquires, only the fastpath_hit counter moves.
func TestFastPathHitInvisibleToRSM(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithMetrics()), []ResourceID{0, 1})
	tok, err := p.Read(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastSeq == 0 {
		t.Fatal("uncontended all-read acquisition did not take the fast path")
	}
	if got := fastCounter(t, p, obs.MFastPathHit, 0); got != 1 {
		t.Errorf("fastpath_hit = %d, want 1", got)
	}
	if st := p.Stats(); st.Issued != 0 {
		t.Errorf("RSM saw %d issues for a fast-path read, want 0", st.Issued)
	}
	if got := fastCounter(t, p, obs.MShardAcquires, 0); got != 0 {
		t.Errorf("shard_acquires = %d for a fast-path read, want 0", got)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Issued != 0 || st.Completed != 0 {
		t.Errorf("RSM stats after fast release: %+v, want all zero", st)
	}
	if got := fastCounter(t, p, obs.MFastPathMigrated, 0); got != 0 {
		t.Errorf("fastpath_migrated = %d with no writer, want 0", got)
	}
}

// newGatedProtocol builds a single-component, 4-resource protocol in which a
// write on 0 (expansion {0,1}) does not conflict with a read of 3 (read
// group {2,3}) — but shares the component, so the writer gate still covers
// the read. Read groups {0,1} and {2,3} are joined by a write-only
// declaration, which contributes no read sharing (Sec. 3.5).
func newGatedProtocol(t testing.TB, opts ...Option) *Protocol {
	t.Helper()
	b := NewSpecBuilder(4)
	for _, d := range [][2][]ResourceID{
		{{0, 1}, nil}, {{2, 3}, nil}, {nil, {1, 2}},
	} {
		if err := b.DeclareRequest(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	spec := b.Build()
	if got := spec.NumComponents(); got != 1 {
		t.Fatalf("NumComponents = %d, want 1", got)
	}
	return New(spec, opts...)
}

// While a write-capable request is in flight the gate is closed: a fast-
// eligible read falls back to the RSM (miss) and still succeeds when its
// resources don't conflict with the writer's.
func TestFastPathGateClosedMiss(t *testing.T) {
	p := newGatedProtocol(t, WithMetrics())
	w, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Read(bg, 3) // no conflict with the write on {0,1}, but gate closed
	if err != nil {
		t.Fatal(err)
	}
	if r.fastSeq != 0 {
		t.Fatal("read admitted to the fast path while the writer gate was closed")
	}
	if got := fastCounter(t, p, obs.MFastPathMiss, 0); got == 0 {
		t.Error("fastpath_miss = 0, want > 0")
	}
	if got := fastCounter(t, p, obs.MFastPathHit, 0); got != 0 {
		t.Errorf("fastpath_hit = %d, want 0", got)
	}
	if st := p.Stats(); st.Issued != 2 { // the writer and the fallback read
		t.Errorf("RSM issued = %d, want 2", st.Issued)
	}
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}
}

// An entering writer migrates the in-flight fast reader into the RSM and
// queues behind its surrogate: the writer must block until the reader
// releases, and the surrogate must show up in the protocol stats.
func TestFastPathMigrationBlocksWriter(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithMetrics()), []ResourceID{0, 1})
	r, err := p.Read(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.fastSeq == 0 {
		t.Fatal("read did not take the fast path")
	}

	acquired := make(chan Token, 1)
	go func() {
		w, err := p.Write(bg, 0)
		if err != nil {
			panic(err)
		}
		acquired <- w
	}()

	select {
	case <-acquired:
		t.Fatal("writer acquired resource 0 while a fast reader held it")
	case <-time.After(50 * time.Millisecond):
	}
	if got := fastCounter(t, p, obs.MFastPathMigrated, 0); got != 1 {
		t.Errorf("fastpath_migrated = %d, want 1", got)
	}
	// The surrogate read plus the writer are both RSM requests now.
	if st := p.Stats(); st.Issued != 2 {
		t.Errorf("RSM issued = %d, want 2 (surrogate + writer)", st.Issued)
	}

	// Releasing the fast token completes the surrogate and wakes the writer.
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-acquired:
		if err := p.Release(w); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer not woken by the migrated reader's release")
	}
	if st := p.Stats(); st.Completed != 2 {
		t.Errorf("RSM completed = %d, want 2", st.Completed)
	}
}

// Double release of a fast-path token fails the claim CAS (sequences are
// never reused) even after the slot has been re-claimed by another reader.
func TestFastPathDoubleRelease(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	tok, err := p.Read(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastSeq == 0 {
		t.Fatal("read did not take the fast path")
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); !errors.Is(err, ErrAlreadyReleased) {
		t.Errorf("second release: got %v, want ErrAlreadyReleased", err)
	}
	// Re-claim the same slot population, then double-release the old token
	// again: the stale sequence must still be rejected.
	tok2, err := p.Read(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); !errors.Is(err, ErrAlreadyReleased) {
		t.Errorf("stale release after re-claim: got %v, want ErrAlreadyReleased", err)
	}
	if err := p.Release(tok2); err != nil {
		t.Fatal(err)
	}
}

// Sustained write pressure revokes the path after fastRevokeMisses gate-
// closed misses; fastGraceReads writer-free misses re-enable it. The
// thresholds are driven deterministically from a single goroutine.
func TestFastPathRevocationHysteresis(t *testing.T) {
	p := newGatedProtocol(t, WithMetrics())
	s := p.shardOf(0)

	w, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each read of 3 is fast-eligible, finds the gate closed, and is served
	// immediately by the RSM (it doesn't conflict with the write's {0,1}).
	for i := 0; i < fastRevokeMisses; i++ {
		r, err := p.Read(bg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if r.fastSeq != 0 {
			t.Fatal("fast-path hit while the gate was closed")
		}
		if err := p.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	if !s.fastRHyst.revoked.Load() {
		t.Fatalf("path not revoked after %d gate-closed misses", fastRevokeMisses)
	}
	if got := fastCounter(t, p, obs.MFastPathRevoked, 0); got != 1 {
		t.Errorf("fastpath_revoked = %d, want 1", got)
	}
	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}

	// Gate open but path revoked: the next fastGraceReads reads are writer-
	// free misses that count down the grace period.
	for i := 0; i < fastGraceReads; i++ {
		if !s.fastRHyst.revoked.Load() {
			t.Fatalf("path re-enabled after only %d writer-free misses", i)
		}
		r, err := p.Read(bg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if r.fastSeq != 0 {
			t.Fatal("fast-path hit while revoked")
		}
		if err := p.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.fastRHyst.revoked.Load() {
		t.Fatal("path still revoked after the writer-free grace period")
	}
	r, err := p.Read(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.fastSeq == 0 {
		t.Fatal("read after re-enable did not take the fast path")
	}
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}
}

// The zero FastPathConfig routes every read through the RSM and registers no
// fastpath counters.
func TestWithoutFastPath(t *testing.T) {
	b := NewSpecBuilder(2)
	if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	p := New(b.Build(), WithMetrics(), WithFastPath(FastPathConfig{}))
	tok, err := p.Read(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastSeq != 0 {
		t.Fatal("fast-path token with both planes off")
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Issued != 1 || st.Completed != 1 {
		t.Errorf("RSM stats = %+v, want 1 issued / 1 completed", st)
	}
	if got := fastCounter(t, p, obs.MFastPathHit, 0); got != 0 {
		t.Errorf("fastpath_hit = %d with both planes off, want 0", got)
	}
}

// A concurrent mix of fast readers and writers must leave a protocol event
// stream that satisfies the paper's properties: migrated readers appear as
// ordinary satisfied reads, so the trace checker must find mutual exclusion,
// writer FIFO, and entitlement intact — and never see a torn or phantom
// lifecycle from the migration handshake.
func TestFastPathTraceConsistent(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	rec := &trace.Recorder{}
	p.SetTracer(rec)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if g%4 == 0 && i%8 == 0 {
					tok, err := p.Write(bg, 0, 1)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Release(tok); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				tok, err := p.Read(bg, ResourceID(g%2))
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	res := trace.Check(rec.Events())
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("trace violation: %s", v)
		}
	}
}

// Regression: a writer's migration scan can catch a claim mid-publication —
// after the reader's slot CAS, before its failing gate re-check — and record
// a surrogate the reader never entered a critical section for. The
// retraction must retire that surrogate (complete or cancel it), or the RSM
// holds a phantom read lock and the component deadlocks. A tight read/write
// loop on one resource reproduced this reliably before the fix.
func TestFastPathRetractMigrationRace(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	const iters = 20000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var tok Token
				var err error
				if g == 0 && i%16 == 0 {
					tok, err = p.Write(bg, 0)
				} else {
					tok, err = p.Read(bg, 0)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlock: a migrated-then-retracted claim left a phantom surrogate in the RSM")
	}
	if st := p.Stats(); st.Issued != st.Completed+st.Canceled {
		t.Errorf("leaked RSM requests: %+v", st)
	}
}

// A writer fast-path hit never reaches the RSM: the whole component is
// claimed by one CAS on the shard's writer word, no issued/completed
// protocol events, only fastpath_write_hit moves.
func TestWriterFastPathHit(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithMetrics()), []ResourceID{0, 1})
	tok, err := p.Write(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastW == 0 {
		t.Fatal("uncontended write did not take the writer fast path")
	}
	if got := fastCounter(t, p, obs.MFastWriteHit, 0); got != 1 {
		t.Errorf("fastpath_write_hit = %d, want 1", got)
	}
	if st := p.Stats(); st.Issued != 0 {
		t.Errorf("RSM saw %d issues for a fast write, want 0", st.Issued)
	}
	if got := fastCounter(t, p, obs.MShardAcquires, 0); got != 0 {
		t.Errorf("shard_acquires = %d for a fast write, want 0", got)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Issued != 0 || st.Completed != 0 {
		t.Errorf("RSM stats after fast write release: %+v, want all zero", st)
	}
	if got := fastCounter(t, p, obs.MFastWriteMigrated, 0); got != 0 {
		t.Errorf("fastpath_write_migrated = %d with no contender, want 0", got)
	}
}

// A mixed-footprint (read+write) request is write-capable and takes the
// writer plane when its component is idle.
func TestWriterFastPathMixedFootprint(t *testing.T) {
	p := newGatedProtocol(t, WithMetrics())
	tok, err := p.Acquire(bg, []ResourceID{3}, []ResourceID{1})
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastW == 0 {
		t.Fatal("uncontended mixed request did not take the writer fast path")
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Issued != 0 {
		t.Errorf("RSM issued = %d for a fast mixed request, want 0", st.Issued)
	}
}

// A contender entering the slow path materializes the in-flight fast writer
// as a surrogate write request in the RSM and queues behind it: mutual
// exclusion holds through the surrogate, and the contender is woken by the
// fast token's release.
func TestWriterFastPathMigrationBlocksWriter(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithMetrics()), []ResourceID{0, 1})
	w, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.fastW == 0 {
		t.Fatal("write did not take the writer fast path")
	}

	acquired := make(chan Token, 1)
	go func() {
		w2, err := p.Write(bg, 0)
		if err != nil {
			panic(err)
		}
		acquired <- w2
	}()

	select {
	case <-acquired:
		t.Fatal("second writer acquired resource 0 while a fast writer held it")
	case <-time.After(50 * time.Millisecond):
	}
	if got := fastCounter(t, p, obs.MFastWriteMigrated, 0); got != 1 {
		t.Errorf("fastpath_write_migrated = %d, want 1", got)
	}
	// The surrogate write plus the contender are both RSM requests now.
	if st := p.Stats(); st.Issued != 2 {
		t.Errorf("RSM issued = %d, want 2 (surrogate + contender)", st.Issued)
	}

	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}
	select {
	case w2 := <-acquired:
		if err := p.Release(w2); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("contender not woken by the migrated fast writer's release")
	}
	if st := p.Stats(); st.Completed != 2 {
		t.Errorf("RSM completed = %d, want 2", st.Completed)
	}
}

// Same migration, reader contender: a read conflicting with the fast
// writer's footprint must block behind the surrogate until release.
func TestWriterFastPathMigrationBlocksReader(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithMetrics()), []ResourceID{0, 1})
	w, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.fastW == 0 {
		t.Fatal("write did not take the writer fast path")
	}

	acquired := make(chan Token, 1)
	go func() {
		r, err := p.Read(bg, 0)
		if err != nil {
			panic(err)
		}
		acquired <- r
	}()

	select {
	case <-acquired:
		t.Fatal("reader acquired resource 0 while a fast writer held it")
	case <-time.After(50 * time.Millisecond):
	}
	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-acquired:
		if err := p.Release(r); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not woken by the migrated fast writer's release")
	}
}

// Double release of a writer fast-path token fails the word CAS (the word
// holds a fresh sequence or zero, never a stale one).
func TestWriterFastPathDoubleRelease(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	tok, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastW == 0 {
		t.Fatal("write did not take the writer fast path")
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); !errors.Is(err, ErrAlreadyReleased) {
		t.Errorf("second release: got %v, want ErrAlreadyReleased", err)
	}
	// Re-claim the word with a new fast write, then double-release the old
	// token again: the stale sequence must still be rejected.
	tok2, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); !errors.Is(err, ErrAlreadyReleased) {
		t.Errorf("stale release after re-claim: got %v, want ErrAlreadyReleased", err)
	}
	if err := p.Release(tok2); err != nil {
		t.Fatal(err)
	}
}

// WithFastPath plane selection: each plane can be enabled independently,
// and the zero config disables both.
func TestFastPathConfigPlanes(t *testing.T) {
	build := func(fc FastPathConfig) *Protocol {
		b := NewSpecBuilder(2)
		if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		return New(b.Build(), WithMetrics(), WithFastPath(fc))
	}
	roundtrip := func(p *Protocol, write bool) Token {
		t.Helper()
		var tok Token
		var err error
		if write {
			tok, err = p.Write(bg, 0)
		} else {
			tok, err = p.Read(bg, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(tok); err != nil {
			t.Fatal(err)
		}
		return tok
	}

	p := build(FastPathConfig{Readers: true})
	if tok := roundtrip(p, false); tok.fastSeq == 0 {
		t.Error("Readers-only: read did not take the fast path")
	}
	if tok := roundtrip(p, true); tok.fastW != 0 {
		t.Error("Readers-only: write took the writer fast path")
	}

	p = build(FastPathConfig{Writers: true})
	if tok := roundtrip(p, false); tok.fastSeq != 0 {
		t.Error("Writers-only: read took the reader fast path")
	}
	if tok := roundtrip(p, true); tok.fastW == 0 {
		t.Error("Writers-only: write did not take the writer fast path")
	}

	p = build(FastPathConfig{})
	if tok := roundtrip(p, false); tok.fastSeq != 0 {
		t.Error("zero config: read took the fast path")
	}
	if tok := roundtrip(p, true); tok.fastW != 0 {
		t.Error("zero config: write took the writer fast path")
	}
	if st := p.Stats(); st.Issued != 2 || st.Completed != 2 {
		t.Errorf("zero config RSM stats = %+v, want 2 issued / 2 completed", st)
	}

	p = New(parkTestSpec(t), WithMetrics()) // no WithFastPath: both planes on
	if tok := roundtrip(p, false); tok.fastSeq == 0 {
		t.Error("default: read did not take the fast path")
	}
	if tok := roundtrip(p, true); tok.fastW == 0 {
		t.Error("default: write did not take the writer fast path")
	}
}

// Per-P slot striping derives claims from per-slot counters. It must admit
// uncontended reads, keep sequences unique (stale double release rejected),
// and interoperate with writer migration.
func TestFastPathSlotStriping(t *testing.T) {
	t.Run("perP", func(t *testing.T) {
		b := NewSpecBuilder(2)
		if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		p := New(b.Build(), WithMetrics())

		tok, err := p.Read(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tok.fastSeq == 0 {
			t.Fatal("read did not take the fast path")
		}
		if err := p.Release(tok); err != nil {
			t.Fatal(err)
		}
		if err := p.Release(tok); !errors.Is(err, ErrAlreadyReleased) {
			t.Errorf("double release: got %v, want ErrAlreadyReleased", err)
		}

		// Parallel churn with a migrating writer in the mix.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					var tok Token
					var err error
					if g == 0 && i%32 == 0 {
						tok, err = p.Write(bg, 0)
					} else {
						tok, err = p.Read(bg, 0)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Release(tok); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if st := p.Stats(); st.Issued != st.Completed+st.Canceled {
			t.Errorf("leaked RSM requests: %+v", st)
		}
		if got := fastCounter(t, p, obs.MFastPathHit, 0); got == 0 {
			t.Error("fastpath_hit = 0 under parallel readers")
		}
	})
}

// Writer-plane revocation hysteresis: busy misses revoke the path, idle
// misses re-enable it, and a revocation that fires again right after a
// re-enable with little fast traffic counts as a storm.
func TestWriterFastPathRevocationHysteresis(t *testing.T) {
	const misses, grace = fastRevokeMisses, fastGraceReads
	p := newGatedProtocol(t, WithMetrics())
	s := p.shardOf(0)

	// A fast reader claim on 3 keeps the component busy from the writer
	// plane's point of view (and stays live as a surrogate after the first
	// slow writer migrates it).
	r, err := p.Read(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.fastSeq == 0 {
		t.Fatal("read did not take the fast path")
	}
	for i := 0; i < misses; i++ {
		w, err := p.Write(bg, 0) // busy miss, then served by the RSM
		if err != nil {
			t.Fatal(err)
		}
		if w.fastW != 0 {
			t.Fatal("writer fast hit while a fast reader was in flight")
		}
		if err := p.Release(w); err != nil {
			t.Fatal(err)
		}
	}
	if !s.fastWHyst.revoked.Load() {
		t.Fatalf("writer path not revoked after %d busy misses", misses)
	}
	if got := fastCounter(t, p, obs.MFastWriteRevoked, 0); got != 1 {
		t.Errorf("fastpath_write_revoked = %d, want 1", got)
	}
	if err := p.Release(r); err != nil {
		t.Fatal(err)
	}

	// Component idle but path revoked: idle misses count down the grace
	// period, then re-enable.
	for i := 0; i < grace; i++ {
		if !s.fastWHyst.revoked.Load() {
			t.Fatalf("writer path re-enabled after only %d idle misses", i)
		}
		w, err := p.Write(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w.fastW != 0 {
			t.Fatal("writer fast hit while revoked")
		}
		if err := p.Release(w); err != nil {
			t.Fatal(err)
		}
	}
	if s.fastWHyst.revoked.Load() {
		t.Fatal("writer path still revoked after the idle grace period")
	}
	w, err := p.Write(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.fastW == 0 {
		t.Fatal("write after re-enable did not take the writer fast path")
	}
	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}

	// Storm: revoke again right after the re-enable, with only one fast op
	// in between (< 2*fastRevokeMisses).
	r2, err := p.Read(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < misses; i++ {
		w, err := p.Write(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release(w); err != nil {
			t.Fatal(err)
		}
	}
	if !s.fastWHyst.revoked.Load() {
		t.Fatal("writer path not revoked by the second busy streak")
	}
	if got := fastCounter(t, p, obs.MFastWriteStorm, 0); got != 1 {
		t.Errorf("fastpath_write_storm = %d, want 1", got)
	}
	if err := p.Release(r2); err != nil {
		t.Fatal(err)
	}
}

// Race stress for the writer plane: fast writes, fast reads, slow mixed
// requests, and upgradeable pairs churning one component. The claim/migrate/
// retract handshakes must neither deadlock nor leak RSM requests.
func TestWriterFastPathRaceStress(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	const iters = 20000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0:
					tok, err := p.Write(bg, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Release(tok); err != nil {
						t.Error(err)
						return
					}
				case g == 1 && i%64 == 0:
					u, err := p.AcquireUpgradeable(bg, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if u.Reading() && i%128 != 0 {
						if err := u.ReleaseRead(); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					if u.Reading() {
						if err := u.Upgrade(bg); err != nil {
							t.Error(err)
							return
						}
					}
					if err := u.Release(); err != nil {
						t.Error(err)
						return
					}
				case g == 2 && i%16 == 0:
					tok, err := p.Acquire(bg, []ResourceID{1}, []ResourceID{0})
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Release(tok); err != nil {
						t.Error(err)
						return
					}
				default:
					tok, err := p.Read(bg, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.Release(tok); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlock: the writer fast-path handshake stranded a request")
	}
	if st := p.Stats(); st.Issued != st.Completed+st.Canceled {
		t.Errorf("leaked RSM requests: %+v", st)
	}
}

// Satellite: the undeclared cross-component slow path under the race
// detector. Every cross-component all-read acquisition must count on
// protocol_slow_path, and none may be lost — writers churn both components
// the whole time, so the per-part gate handshakes and rollbacks all fire.
func TestCrossComponentSlowPathRace(t *testing.T) {
	// Components {0,1} and {2,3}; reads spanning both are undeclared and
	// take the ordered multi-part slow path.
	p := newTestProtocol(t, 4, opts(WithMetrics()), []ResourceID{0, 1}, []ResourceID{2, 3})

	const (
		crossers = 4
		writers  = 2
		perGoro  = 200
		crossOps = crossers * perGoro
	)
	var wg sync.WaitGroup
	for g := 0; g < crossers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				tok, err := p.Read(bg, 1, 2) // spans both components
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := ResourceID(2 * g)
			for i := 0; i < perGoro; i++ {
				tok, err := p.Write(bg, base, base+1)
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("lost wakeup: slow-path stress did not complete")
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counters[obs.MSlowPath]; got != crossOps {
		t.Errorf("protocol_slow_path = %d, want %d", got, crossOps)
	}
	// Every acquisition released: nothing in flight, nothing leaked.
	if st := p.Stats(); st.Issued != st.Completed+st.Canceled {
		t.Errorf("leaked requests: %+v", st)
	}
}
