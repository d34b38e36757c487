package rwrnlp

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/internal/obs"
	"github.com/rtsync/rwrnlp/internal/trace"
)

// parkTestSpec declares one {0,1} component.
func parkTestSpec(t testing.TB) *Spec {
	t.Helper()
	sb := NewSpecBuilder(2)
	if err := sb.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	return sb.Build()
}

// parkCounters sums the shard-labeled park accounting counters.
func parkCounters(p *Protocol) (wake, direct, spur int64) {
	snap := p.Metrics().Snapshot()
	for s := 0; s < p.NumShards(); s++ {
		wake += snap.Counters[obs.ShardMetric(obs.MParkWakeups, s)]
		direct += snap.Counters[obs.ShardMetric(obs.MParkDirect, s)]
		spur += snap.Counters[obs.ShardMetric(obs.MParkSpurious, s)]
	}
	return
}

// TestWaiterStateMachine drives the packed state word through every legal
// transition, including both outcomes of the signal-vs-cancel race.
func TestWaiterStateMachine(t *testing.T) {
	newSema := func() *waiter { return &waiter{sema: make(chan struct{}, 1)} }

	t.Run("signal-before-park", func(t *testing.T) {
		w := newSema()
		if got := w.signal(); got != parkDirect {
			t.Fatalf("signal on idle waiter = %v, want parkDirect", got)
		}
		if w.state.Load() != parkSignaled {
			t.Fatal("waiter not signaled after direct signal")
		}
		if w.park(false) {
			t.Fatal("park committed to blocking after the signal landed")
		}
		if len(w.sema) != 0 {
			t.Fatal("direct signal must not spend a token")
		}
	})

	t.Run("signal-after-park", func(t *testing.T) {
		w := newSema()
		woke := make(chan struct{})
		go func() {
			w.wait(false)
			close(woke)
		}()
		for w.state.Load() != parkParked {
			time.Sleep(50 * time.Microsecond)
		}
		if got := w.signal(); got != parkWokeParked {
			t.Fatalf("signal on parked waiter = %v, want parkWokeParked", got)
		}
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatal("lost wakeup: parked waiter never woke")
		}
	})

	t.Run("cancel-wins", func(t *testing.T) {
		w := newSema()
		if !w.park(false) {
			t.Fatal("park refused on an idle waiter")
		}
		if !w.cancel() {
			t.Fatal("cancel lost with no signal in flight")
		}
		if got := w.signal(); got != parkSpurious {
			t.Fatalf("signal after winning cancel = %v, want parkSpurious", got)
		}
		if len(w.sema) != 0 {
			t.Fatal("spurious signal must not leave a token behind")
		}
	})

	t.Run("cancel-loses", func(t *testing.T) {
		w := newSema()
		if !w.park(false) {
			t.Fatal("park refused on an idle waiter")
		}
		if got := w.signal(); got != parkWokeParked {
			t.Fatalf("signal on parked waiter = %v, want parkWokeParked", got)
		}
		if w.cancel() {
			t.Fatal("cancel won after the signal's CAS landed")
		}
		select {
		case <-w.sema: // the losing canceller consumes the in-flight token
		default:
			t.Fatal("no token in flight after losing cancel")
		}
	})
}

// TestParkWakeupAccounting is the batched-release acceptance test: N readers
// park behind one writer; releasing the writer satisfies all of them inside
// one critical section, and the signal batch must deliver exactly one
// runtime wakeup per entitled grant — no broadcast, no spurious delivery.
// Wake-ups come from the RSM's wake hook and events from its observer, two
// separate attachments: the identity must hold whether or not a tracer has
// been added to the stream.
func TestParkWakeupAccounting(t *testing.T) {
	t.Run("no-tracer", func(t *testing.T) { parkWakeupAccounting(t, nil) })
	t.Run("late-tracer", func(t *testing.T) {
		rec := &trace.Recorder{}
		parkWakeupAccounting(t, rec)
		if res := trace.Check(rec.Events()); !res.Ok() {
			t.Fatalf("trace violations: %v", res.Violations)
		}
	})
}

func parkWakeupAccounting(t *testing.T, tracer *trace.Recorder) {
	const readers = 6
	p := New(parkTestSpec(t),
		WithPlaceholders(),
		WithMetrics(),
		WithSelfCheck(),
		WithFastPath(FastPathConfig{}))
	if tracer != nil {
		p.SetTracer(tracer)
	}

	wtok, err := p.Write(bgCtx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tok, err := p.Read(bgCtx, 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if err := p.Release(tok); err != nil {
				t.Error(err)
			}
		}()
	}

	// Wait until every reader is not merely issued but physically parked
	// (state word observed parkParked), so no signal can land as a direct
	// delivery and the count below prices real wakeups.
	waitParked(t, p.shards[0], readers)

	if err := p.Release(wtok); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	wake, direct, spur := parkCounters(p)
	if wake != readers || direct != 0 || spur != 0 {
		t.Fatalf("park accounting after batched release: wakeups=%d direct=%d spurious=%d, want %d/0/0",
			wake, direct, spur, readers)
	}
	snap := p.Metrics().Snapshot()
	grants := snap.Counters[obs.MSatisfied] - snap.Counters[obs.MImmediate]
	if wake != grants {
		t.Fatalf("park_wakeups = %d, want one wake per non-immediate grant (%d)", wake, grants)
	}
}

// TestParkSignalCancelStorm is the signal-vs-ctx-cancel storm (the PR 7
// lease-race pattern): four jittered workers race short context deadlines
// against contended acquisitions under -race. The assertions are: no lost wakeup (the storm drains), no double grant
// (writer exclusivity counter + WithSelfCheck), and exact accounting after
// the drain — every non-immediate grant was delivered as exactly one
// wakeup/direct signal, with spurious deliveries only for cancelled
// waiters.
func TestParkSignalCancelStorm(t *testing.T) {
	t.Run("park=sema", func(t *testing.T) {
		p := New(parkTestSpec(t),
			WithPlaceholders(),
			WithMetrics(),
			WithSelfCheck(),
			WithFlightRecorder(512),
			WithFastPath(FastPathConfig{}))
		// On failure, persist the flight rings so the counterexample
		// survives the runner (CI uploads *.flight.json as artifacts).
		defer func() {
			if !t.Failed() {
				return
			}
			buf, err := json.MarshalIndent(p.FlightRecorder().Dump(), "", "  ")
			if err == nil {
				const name = "park-storm-sema.flight.json"
				if werr := os.WriteFile(name, buf, 0o644); werr == nil {
					t.Logf("flight dump written to %s", name)
				}
			}
		}()

		const workers = 4
		iters := 300
		if testing.Short() {
			iters = 60
		}

		var excl atomic.Int32 // writer-exclusivity witness
		var granted, cancelled atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					// Jitter the deadline across iterations so the cancel
					// lands before, during, and after the grant.
					ttl := time.Duration(50+(wk*7+i)%9*40) * time.Microsecond
					ctx, cancel := context.WithTimeout(bgCtx, ttl)
					write := (wk+i)%3 == 0
					var tok Token
					var err error
					if write {
						tok, err = p.Write(ctx, 0, 1)
					} else {
						tok, err = p.Read(ctx, 0, 1)
					}
					cancel()
					switch {
					case err == nil:
						granted.Add(1)
						if write {
							if v := excl.Add(1); v != 1 {
								t.Errorf("double grant: writer entered with %d holders", v)
							}
							excl.Add(-1)
						} else if v := excl.Load(); v != 0 {
							t.Errorf("double grant: reader overlapped a writer (%d)", v)
						}
						if rerr := p.Release(tok); rerr != nil {
							t.Errorf("release: %v", rerr)
						}
					case errors.Is(err, context.DeadlineExceeded):
						cancelled.Add(1)
					default:
						t.Errorf("worker %d iter %d: unexpected error %v", wk, i, err)
					}
				}
			}(wk)
		}
		wg.Wait()

		// No lost wakeup: nothing is left parked and the component is
		// immediately writable again.
		s := p.shards[0]
		s.mu.Lock()
		left := len(s.waiters)
		s.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d waiters left parked after drain", left)
		}
		ctx, cancelFn := context.WithTimeout(bgCtx, 5*time.Second)
		tok, err := p.Write(ctx, 0, 1)
		cancelFn()
		if err != nil {
			t.Fatalf("component not free after storm: %v", err)
		}
		if err := p.Release(tok); err != nil {
			t.Fatal(err)
		}

		// Exact accounting: every signal the shard delivered is classified
		// once, and every request that blocked and was satisfied received
		// exactly one delivery.
		wake, direct, spur := parkCounters(p)
		snap := p.Metrics().Snapshot()
		blocked := snap.Counters[obs.MSatisfied] - snap.Counters[obs.MImmediate]
		if wake+direct+spur != blocked {
			t.Fatalf("park accounting: wakeups=%d direct=%d spurious=%d (sum %d), want satisfied-immediate=%d",
				wake, direct, spur, wake+direct+spur, blocked)
		}
		if granted.Load() == 0 || cancelled.Load() == 0 {
			t.Logf("storm imbalance: granted=%d cancelled=%d (still valid, but jitter covered one side only)",
				granted.Load(), cancelled.Load())
		}
	})
}

// TestParkSignalToWakeLatency is the regression test for the spin-mode
// oversleep bug: the old backoff ladder re-checked the signal only at rung
// boundaries and could sleep up to 127µs after signal had already fired.
// The parker now re-checks the state word before every sleep and caps the
// ladder at parkMaxSleep (8µs), so the post-signal latency is one rung plus
// scheduler slop. Wall-clock bounds are kept loose for noisy CI machines;
// an unbounded ladder or a lost wakeup fails them by orders of magnitude.
func TestParkSignalToWakeLatency(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 50
	}

	// Already-signaled waits must never sleep at all.
	for i := 0; i < trials; i++ {
		w := &waiter{sema: make(chan struct{}, 1)}
		w.signal()
		start := time.Now()
		w.wait(true)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("trial %d: already-signaled wait slept %v", i, d)
		}
	}

	// Signal landing mid-burst: measure signal-to-wake and bound the median,
	// which an uncapped per-rung ladder inflates by orders of magnitude.
	lat := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		w := &waiter{sema: make(chan struct{}, 1)}
		done := make(chan time.Time, 1)
		go func() {
			w.wait(true)
			done <- time.Now()
		}()
		// Jitter the signal across the yield burst and into the sleep ladder.
		for y := 0; y < (i%16)*4; y++ {
			_ = y
		}
		time.Sleep(time.Duration(i%20) * time.Microsecond)
		t0 := time.Now()
		w.signal()
		select {
		case woke := <-done:
			if d := woke.Sub(t0); d > 0 {
				lat = append(lat, d)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("lost wakeup in spin mode")
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[len(lat)/2]
	worst := lat[len(lat)-1]
	t.Logf("signal-to-wake: median=%v p100=%v over %d trials", median, worst, len(lat))
	if median > 10*time.Millisecond {
		t.Fatalf("median signal-to-wake latency %v; the capped ladder should resolve within one %v rung plus scheduler slop",
			median, parkMaxSleep)
	}
	if worst > time.Second {
		t.Fatalf("worst signal-to-wake latency %v", worst)
	}
}

var bgCtx = context.Background()
