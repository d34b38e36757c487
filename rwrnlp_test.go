package rwrnlp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

// opts spells an option list for newTestProtocol.
func opts(o ...Option) []Option { return o }

func newTestProtocol(t testing.TB, q int, opt []Option, readGroups ...[]ResourceID) *Protocol {
	t.Helper()
	b := NewSpecBuilder(q)
	for _, g := range readGroups {
		if err := b.DeclareRequest(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	return New(b.Build(), opt...)
}

func TestAcquireReleaseBasic(t *testing.T) {
	p := newTestProtocol(t, 3, nil, []ResourceID{0, 1})
	tok, err := p.Read(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := p.Read(bg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire(bg, nil, nil); err == nil {
		t.Error("empty acquire accepted")
	}
}

// Writers on the same resources are mutually exclusive; readers share.
// Exercises the full protocol under the race detector.
func TestConcurrentMutualExclusion(t *testing.T) {
	for _, opt := range [][]Option{nil, opts(WithPlaceholders()), opts(WithSpin()), opts(WithPlaceholders(), WithSpin())} {
		opt := opt
		p := newTestProtocol(t, 4, opt, []ResourceID{0, 1}, []ResourceID{2, 3})
		data := make([]int64, 4)
		var wg sync.WaitGroup
		var inWrite [4]atomic.Int32

		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res := []ResourceID{ResourceID(g % 4), ResourceID((g + 1) % 4)}
				for i := 0; i < 400; i++ {
					if i%4 == 0 {
						tok, err := p.Write(bg, res...)
						if err != nil {
							t.Error(err)
							return
						}
						for _, r := range res {
							if inWrite[r].Add(1) != 1 {
								t.Errorf("write overlap on %d", r)
							}
							data[r]++
						}
						for _, r := range res {
							inWrite[r].Add(-1)
						}
						if err := p.Release(tok); err != nil {
							t.Error(err)
							return
						}
					} else {
						tok, err := p.Read(bg, res[0])
						if err != nil {
							t.Error(err)
							return
						}
						if inWrite[res[0]].Load() != 0 {
							t.Errorf("reader overlapped writer on %d", res[0])
						}
						_ = data[res[0]]
						if err := p.Release(tok); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// Two readers hold overlapping resources concurrently.
func TestReaderSharing(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	tok1, _ := p.Read(bg, 0, 1)
	done := make(chan struct{})
	go func() {
		tok2, err := p.Read(bg, 0)
		if err != nil {
			t.Error(err)
		}
		p.Release(tok2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked")
	}
	p.Release(tok1)
}

// A waiting writer blocks later readers (phase-fairness) and proceeds after
// current readers drain.
func TestPhaseFairness(t *testing.T) {
	p := newTestProtocol(t, 1, nil)
	r1, _ := p.Read(bg, 0)

	wIn := make(chan struct{})
	go func() {
		w, err := p.Write(bg, 0)
		if err != nil {
			t.Error(err)
		}
		close(wIn)
		time.Sleep(50 * time.Millisecond)
		p.Release(w)
	}()
	time.Sleep(50 * time.Millisecond) // writer is now entitled

	lateR := make(chan struct{})
	go func() {
		r, err := p.Read(bg, 0)
		if err != nil {
			t.Error(err)
		}
		close(lateR)
		p.Release(r)
	}()

	select {
	case <-lateR:
		t.Fatal("late reader jumped an entitled writer")
	case <-time.After(100 * time.Millisecond):
	}
	p.Release(r1) // writer enters
	<-wIn
	select {
	case <-lateR: // after the write phase, the reader goes
	case <-time.After(2 * time.Second):
		t.Fatal("reader starved")
	}
}

// Deadlock freedom: goroutines acquiring multi-resource sets in opposite
// orders (the classic deadlock scenario for two-phase locking) always make
// progress because acquisition is atomic.
func TestNoDeadlockOppositeOrders(t *testing.T) {
	p := newTestProtocol(t, 2, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var tok Token
				var err error
				if g%2 == 0 {
					tok, err = p.Write(bg, 0, 1)
				} else {
					tok, err = p.Write(bg, 1, 0)
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
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: opposite-order writers did not finish")
	}
}

func TestUpgradeableFlow(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})

	// Uncontended: read phase, no upgrade needed.
	u, err := p.AcquireUpgradeable(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Reading() {
		t.Fatal("expected read phase")
	}
	if err := u.ReleaseRead(); err != nil {
		t.Fatal(err)
	}
	if err := u.ReleaseRead(); err == nil {
		t.Error("double ReleaseRead accepted")
	}

	// Upgrade path.
	u2, err := p.AcquireUpgradeable(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.Upgrade(bg); err != nil {
		t.Fatal(err)
	}
	if err := u2.Release(); err != nil {
		t.Fatal(err)
	}

	// After everything, a plain write goes through (queues are clean).
	tok, err := p.Write(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(tok)
}

// An upgrade must wait for concurrent readers of its resources, then win.
func TestUpgradeWaitsForReaders(t *testing.T) {
	p := newTestProtocol(t, 1, nil)
	r, _ := p.Read(bg, 0)
	u, err := p.AcquireUpgradeable(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Reading() {
		t.Fatal("upgradeable read half should share with the reader")
	}
	upDone := make(chan struct{})
	go func() {
		if err := u.Upgrade(bg); err != nil {
			t.Error(err)
		}
		close(upDone)
	}()
	select {
	case <-upDone:
		t.Fatal("upgrade completed while a reader held the resource")
	case <-time.After(100 * time.Millisecond):
	}
	p.Release(r)
	select {
	case <-upDone:
	case <-time.After(2 * time.Second):
		t.Fatal("upgrade never completed")
	}
	u.Release()
}

func TestIncrementalFlow(t *testing.T) {
	p := newTestProtocol(t, 3, nil, []ResourceID{0, 1, 2})

	// Uncontended: Rule W1 satisfies the request immediately, so the WHOLE
	// potential set is held at once.
	easy, err := p.AcquireIncremental(bg, []ResourceID{0}, []ResourceID{1, 2}, nil, []ResourceID{1})
	if err != nil {
		t.Fatal(err)
	}
	if !easy.Holds(0, 1, 2) {
		t.Fatal("immediately satisfied incremental request must hold its full set")
	}
	if err := easy.Release(); err != nil {
		t.Fatal(err)
	}

	// Contended: a reader on 2 forces genuine incremental grants.
	blocker, _ := p.Read(bg, 2)
	inc, err := p.AcquireIncremental(bg,
		[]ResourceID{0}, []ResourceID{1, 2}, // potential: read 0, write 1,2
		[]ResourceID{0}, []ResourceID{1}, // initially: read 0, write 1
	)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Holds(0, 1) {
		t.Fatal("initial subset not held")
	}
	if inc.Holds(2) {
		t.Fatal("read-locked resource granted for writing")
	}
	if err := p.Release(blocker); err != nil {
		t.Fatal(err)
	}
	if err := inc.Acquire(bg, 2); err != nil {
		t.Fatal(err)
	}
	if !inc.Holds(0, 1, 2) {
		t.Fatal("full set not held after Acquire")
	}
	if err := inc.Acquire(bg, 99); err == nil {
		t.Error("out-of-set acquire accepted")
	}
	if err := inc.Release(); err != nil {
		t.Fatal(err)
	}
}

// Incremental requests under contention: a reader holds a resource the
// incremental writer wants later; the grant arrives when the reader leaves.
func TestIncrementalContended(t *testing.T) {
	p := newTestProtocol(t, 2, nil, []ResourceID{0, 1})
	r, _ := p.Read(bg, 1)

	inc, err := p.AcquireIncremental(bg, nil, []ResourceID{0, 1}, nil, []ResourceID{0})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Holds(0) || inc.Holds(1) {
		t.Fatalf("holds: 0=%v 1=%v", inc.Holds(0), inc.Holds(1))
	}
	acq := make(chan struct{})
	go func() {
		if err := inc.Acquire(bg, 1); err != nil {
			t.Error(err)
		}
		close(acq)
	}()
	select {
	case <-acq:
		t.Fatal("acquired a read-locked resource for writing")
	case <-time.After(100 * time.Millisecond):
	}
	p.Release(r)
	select {
	case <-acq:
	case <-time.After(2 * time.Second):
		t.Fatal("incremental grant never arrived")
	}
	inc.Release()
}

// Stress: all request forms mixed across goroutines under the race
// detector, in all option combinations.
func TestStressAllForms(t *testing.T) {
	p := newTestProtocol(t, 4, opts(WithPlaceholders()), []ResourceID{0, 1}, []ResourceID{2, 3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r0 := ResourceID(g % 4)
			r1 := ResourceID((g + 2) % 4)
			// Incremental requests must stay within one declared component
			// ({0,1} / {2,3}); r1 may cross and exercises the slow path in
			// the plain mixed acquisition instead.
			rInc := r0 ^ 1
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					tok, err := p.Write(bg, r0)
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				case 1:
					tok, err := p.Read(bg, r0)
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				case 2:
					tok, err := p.Acquire(bg, []ResourceID{r0}, []ResourceID{r1}) // mixed
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				case 3:
					u, err := p.AcquireUpgradeable(bg, r0)
					if err != nil {
						t.Error(err)
						return
					}
					if u.Reading() {
						if i%2 == 0 {
							if err := u.Upgrade(bg); err != nil {
								t.Error(err)
								return
							}
							u.Release()
						} else if err := u.ReleaseRead(); err != nil {
							t.Error(err)
							return
						}
					} else {
						u.Release()
					}
				case 4:
					inc, err := p.AcquireIncremental(bg, nil, []ResourceID{r0, rInc}, nil, []ResourceID{r0})
					if err != nil {
						t.Error(err)
						return
					}
					if err := inc.Acquire(bg, rInc); err != nil {
						t.Error(err)
						return
					}
					inc.Release()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test hung")
	}
	st := p.Stats()
	if st.Completed == 0 {
		t.Error("no completions recorded")
	}
}

func TestAcquireContextTimeout(t *testing.T) {
	p := newTestProtocol(t, 1, nil)
	hold, _ := p.Write(bg, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Acquire(ctx, nil, []ResourceID{0})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The canceled request left no debris: release and re-acquire works,
	// and readers that queued behind it are unblocked.
	if err := p.Release(hold); err != nil {
		t.Fatal(err)
	}
	tok, err := p.Acquire(context.Background(), nil, []ResourceID{0})
	if err != nil {
		t.Fatal(err)
	}
	p.Release(tok)
}

func TestAcquireContextImmediate(t *testing.T) {
	p := newTestProtocol(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled context: immediate satisfaction still wins
	tok, err := p.Acquire(ctx, []ResourceID{0}, nil)
	if err != nil {
		t.Fatalf("uncontended acquisition failed under canceled ctx: %v", err)
	}
	p.Release(tok)
}

func TestAcquireContextCancelUnblocksOthers(t *testing.T) {
	p := newTestProtocol(t, 1, nil)
	r1, _ := p.Read(bg, 0)

	// A writer queues (entitled), then gets canceled; a reader queued
	// behind the entitled writer must be satisfied after the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	wErr := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, nil, []ResourceID{0})
		wErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // writer is entitled now

	rDone := make(chan struct{})
	go func() {
		tok, err := p.Read(bg, 0)
		if err != nil {
			t.Error(err)
		}
		close(rDone)
		p.Release(tok)
	}()
	select {
	case <-rDone:
		t.Fatal("reader jumped the entitled writer")
	case <-time.After(100 * time.Millisecond):
	}

	cancel()
	if err := <-wErr; err != context.Canceled {
		t.Fatalf("writer err = %v", err)
	}
	select {
	case <-rDone:
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after writer cancellation")
	}
	p.Release(r1)
}

func TestAcquireContextStress(t *testing.T) {
	p := newTestProtocol(t, 2, opts(WithPlaceholders()))
	var wg sync.WaitGroup
	var acquired, timedOut atomic.Int64
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
				tok, err := p.Acquire(ctx, nil, []ResourceID{ResourceID(g % 2), ResourceID((g + 1) % 2)})
				if err == nil {
					acquired.Add(1)
					p.Release(tok)
				} else {
					timedOut.Add(1)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if acquired.Load() == 0 {
		t.Error("nothing acquired under context pressure")
	}
	// The protocol must be fully drained and reusable.
	tok, err := p.Write(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(tok)
}

// SelfCheck mode audits every invocation; a healthy run never panics.
func TestSelfCheckMode(t *testing.T) {
	p := newTestProtocol(t, 3, opts(WithSelfCheck(), WithPlaceholders()), []ResourceID{0, 1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					tok, err := p.Write(bg, ResourceID(g%3))
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				} else {
					tok, err := p.Read(bg, 0, 1)
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSnapshot(t *testing.T) {
	// Writer plane off: an uncontended write taken by the fast path holds no
	// RSM state and is invisible to Snapshot (see TestWriterFastPathHit);
	// this test wants the RSM-served view.
	b := NewSpecBuilder(2)
	p := New(b.Build(), WithFastPath(FastPathConfig{Readers: true}))
	tok, _ := p.Write(bg, 0)
	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot covers %d resources", len(snap))
	}
	if snap[0].WriteHolder == 0 {
		t.Error("write holder missing from snapshot")
	}
	if snap[1].WriteHolder != 0 || len(snap[1].ReadHolders) != 0 {
		t.Error("unheld resource shows holders")
	}
	p.Release(tok)
	snap = p.Snapshot()
	if snap[0].WriteHolder != 0 {
		t.Error("holder not cleared after release")
	}
}

// Grand unification soak (skipped in -short): every request form under
// concurrent load, with per-invocation invariant self-checks AND post-hoc
// trace checking via the tracer hook, in all option combinations.
func TestRuntimeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, opt := range [][]Option{
		opts(WithSelfCheck()),
		opts(WithPlaceholders(), WithSelfCheck()),
		opts(WithPlaceholders(), WithSpin(), WithSelfCheck()),
	} {
		opt := opt
		b := NewSpecBuilder(6)
		if err := b.DeclareRequest([]ResourceID{0, 1, 2}, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareRequest([]ResourceID{3, 4}, []ResourceID{5}); err != nil {
			t.Fatal(err)
		}
		p := New(b.Build(), opt...)

		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				r0 := ResourceID(g % 6)
				r1 := ResourceID((g + 3) % 6)
				// Same-component partner for the incremental form (components
				// are {0,1,2} and {3,4,5}); r1 always crosses and keeps the
				// multi-component slow path under load elsewhere.
				rInc := ResourceID((int(r0)/3)*3 + (int(r0)+1)%3)
				for i := 0; i < 300; i++ {
					switch i % 6 {
					case 0:
						tok, err := p.Write(bg, r0, r1)
						if err != nil {
							t.Error(err)
							return
						}
						p.Release(tok)
					case 1:
						tok, err := p.Read(bg, 0, 1, 2)
						if err != nil {
							t.Error(err)
							return
						}
						p.Release(tok)
					case 2:
						tok, err := p.Acquire(bg, []ResourceID{3, 4}, []ResourceID{5})
						if err != nil {
							t.Error(err)
							return
						}
						p.Release(tok)
					case 3:
						u, err := p.AcquireUpgradeable(bg, r0)
						if err != nil {
							t.Error(err)
							return
						}
						if u.Reading() {
							if i%2 == 0 {
								if err := u.Upgrade(bg); err != nil {
									t.Error(err)
									return
								}
								u.Release()
							} else {
								u.ReleaseRead()
							}
						} else {
							u.Release()
						}
					case 4:
						inc, err := p.AcquireIncremental(bg, nil, []ResourceID{r0, rInc}, nil, []ResourceID{r0})
						if err != nil {
							t.Error(err)
							return
						}
						if err := inc.Acquire(bg, rInc); err != nil {
							t.Error(err)
							return
						}
						inc.Release()
					case 5:
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%2)*time.Millisecond)
						tok, err := p.Acquire(ctx, nil, []ResourceID{r0})
						if err == nil {
							p.Release(tok)
						}
						cancel()
					}
				}
			}()
		}
		wg.Wait()
	}
}
