package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/rtsync/rwrnlp/internal/core"
)

// TestWatchdogFiresOnChaosStall is the acceptance scenario: the
// ChaosDeafFreshReads hook strands a fresh read in a writer-free component —
// an artificial Theorem 1 violation — and the watchdog must fire, naming the
// stranded request and capturing a valid Perfetto-renderable flight dump
// plus a goroutine profile.
func TestWatchdogFiresOnChaosStall(t *testing.T) {
	fl := NewFlightRecorder(1, 64)
	var fired []StallReport
	wd := NewWatchdog(WatchdogConfig{
		M:                2,
		Slack:            2,
		Flight:           fl,
		GoroutineProfile: true,
		OnStall:          func(r StallReport) { fired = append(fired, r) },
	})
	rsm := core.NewRSM(core.NewSpecBuilder(2).Build(), core.Options{ChaosDeafFreshReads: true})
	rsm.SetObserver(NewPipeline(Sinks{Flight: fl, Watchdog: wd}))

	// Warm the observed envelope: a write CS of length 4 on resource 1.
	w1, err := rsm.Issue(1, nil, []core.ResourceID{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(5, w1); err != nil {
		t.Fatal(err)
	}

	// t=10: a fresh read into the writer-free component — chaos strands it.
	rd, err := rsm.Issue(10, []core.ResourceID{0}, nil, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := rsm.State(rd); st != core.StateWaiting {
		t.Fatalf("read state = %v, want stranded waiting", st)
	}

	// Envelope: read bound = (Lr+Lw)×slack = (0+4)×2 = 8. At t=25 the read
	// has waited 15 — the watchdog must fire exactly once.
	if n := wd.Poll(25); n != 1 {
		t.Fatalf("Poll fired %d stalls, want 1", n)
	}
	if wd.Poll(40) != 0 {
		t.Error("watchdog fired twice for the same request")
	}
	if wd.Firings() != 1 || len(fired) != 1 {
		t.Fatalf("firings = %d, callbacks = %d, want 1/1", wd.Firings(), len(fired))
	}

	r := fired[0]
	if r.Req != rd || r.Tag != "victim" {
		t.Errorf("report names req=%d tag=%q, want %d/victim", r.Req, r.Tag, rd)
	}
	if r.Waited != 15 || r.Bound != 8 {
		t.Errorf("report waited=%d bound=%d, want 15/8", r.Waited, r.Bound)
	}
	if r.Dump == nil || len(r.Dump.Records) == 0 {
		t.Fatal("report has no flight dump")
	}
	var buf bytes.Buffer
	if err := r.Dump.WritePerfetto(&buf); err != nil {
		t.Fatalf("flight dump does not render as Perfetto: %v", err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("dump's Perfetto trace invalid (err=%v, events=%d)", err, len(tr.TraceEvents))
	}
	if !bytes.Contains(r.GoroutineProfile, []byte("goroutine")) {
		t.Errorf("goroutine profile missing or empty: %q", r.GoroutineProfile)
	}
	if len(wd.Reports()) != 1 {
		t.Errorf("retained reports = %d, want 1", len(wd.Reports()))
	}
}

// TestWatchdogNoFalsePositive: a healthy workload with delays inside the
// envelope never fires, even with slack 1.
func TestWatchdogNoFalsePositive(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{M: 2, Slack: 1})
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{})
	rsm.SetObserver(NewPipeline(Sinks{Watchdog: wd}))

	// Alternating writers with CS length 10: each waits at most 10, and the
	// write envelope is (m−1)(Lr+Lw) = 10.
	var prev core.ReqID
	for i := 0; i < 8; i++ {
		t0 := core.Time(1 + 10*i)
		id, err := rsm.Issue(t0, nil, []core.ResourceID{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := rsm.Complete(t0+1, prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	if err := rsm.Complete(90, prev); err != nil {
		t.Fatal(err)
	}
	if n := wd.Firings(); n != 0 {
		t.Errorf("watchdog fired %d times on a healthy workload: %+v", n, wd.Reports())
	}
}

// TestWatchdogObservedEnvelopeWarmup: before any critical section completes,
// the observed envelope is unknown and the watchdog must stay silent rather
// than fire on a zero bound.
func TestWatchdogObservedEnvelopeWarmup(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{M: 2, Slack: 1})
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{ChaosDeafFreshReads: true})
	rsm.SetObserver(NewPipeline(Sinks{Watchdog: wd}))
	if _, err := rsm.Issue(1, []core.ResourceID{0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := wd.Poll(1_000_000); n != 0 {
		t.Errorf("watchdog fired %d times with a cold envelope", n)
	}
}

// TestWatchdogAnalytic: an analytic envelope checks from the first event,
// without warmup.
func TestWatchdogAnalytic(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{M: 2, Slack: 1})
	wd.SetAnalytic(3, 4) // read bound = 7
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{ChaosDeafFreshReads: true})
	rsm.SetObserver(NewPipeline(Sinks{Watchdog: wd}))
	rd, err := rsm.Issue(1, []core.ResourceID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := wd.Poll(9); n != 1 {
		t.Fatalf("Poll fired %d, want 1 (waited 8 > bound 7)", n)
	}
	if got := wd.Reports()[0].Req; got != rd {
		t.Errorf("stalled req = %d, want %d", got, rd)
	}
}
