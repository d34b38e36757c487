package rwrnlp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/trace"
)

// A protocol built with no observability option runs its RSMs with no
// observer at all — wake-ups travel by the wake hook — until SetTracer
// attaches one. From then on the tracer must see every transition (the stream
// balances against the RSM's own counters and passes the trace checker),
// and the wake-ups must be exactly what they were: every parked request
// woken once, none early. A request signaled twice would leave a token in a
// recycled waiter, and the next round's reader to draw that waiter would
// walk into the writer's critical section.
func TestLateTracerSeesWholeStream(t *testing.T) {
	const readers, rounds = 6, 5
	p := New(parkTestSpec(t), WithPlaceholders(), WithSelfCheck(), WithFastPath(FastPathConfig{}))
	s := p.shards[0]
	if s.pipe != nil {
		t.Fatal("a pipeline exists before any option or tracer asked for one")
	}
	rec := &trace.Recorder{}
	p.SetTracer(rec)

	var writing atomic.Bool
	for round := 0; round < rounds; round++ {
		wtok, err := p.Write(bgCtx, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		writing.Store(true)

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
				if writing.Load() {
					t.Error("reader woke inside the writer's critical section")
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
				}
			}()
		}
		// One more request gives up while parked: a canceled lifecycle in the
		// stream, and a waiter that must not be signaled into reuse.
		ctx, cancel := context.WithCancel(context.Background())
		gaveUp := make(chan error, 1)
		go func() {
			_, err := p.Write(ctx, 0)
			gaveUp <- err
		}()

		waitParked(t, s, readers+1)
		cancel()
		if err := <-gaveUp; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Write returned %v", err)
		}
		writing.Store(false)
		if err := p.Release(wtok); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		s.mu.Lock()
		left, pending := len(s.waiters), s.sigHead != nil
		s.unlock()
		if left != 0 || pending {
			t.Fatalf("round %d: %d waiters still registered, signals pending: %v", round, left, pending)
		}
	}

	events := rec.Events()
	if res := trace.Check(events); !res.Ok() {
		t.Fatalf("trace violations: %v", res.Violations)
	}
	var n [core.EvReadSegmentDone + 1]int64
	for _, e := range events {
		n[e.Type]++
	}
	st := p.Stats()
	want := int64(rounds * (readers + 2))
	if st.Issued != want || st.Canceled != rounds || st.Completed != want-rounds {
		t.Fatalf("RSM stats %+v, want %d issued, %d canceled", st, want, rounds)
	}
	if n[core.EvIssued] != st.Issued || n[core.EvSatisfied] != st.Satisfied ||
		n[core.EvCompleted] != st.Completed || n[core.EvCanceled] != st.Canceled ||
		n[core.EvEntitled] != st.Entitlements {
		t.Fatalf("the tracer's stream %v does not balance against the RSM's counters %+v", n, st)
	}
}

// waitParked waits until n requests of the shard are physically parked.
func waitParked(t *testing.T, s *shard, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		s.mu.Lock()
		for _, w := range s.waiters {
			if w.state.Load() == parkParked {
				parked++
			}
		}
		s.unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests parked", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}
