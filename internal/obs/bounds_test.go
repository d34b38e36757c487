package obs

import (
	"strings"
	"testing"

	"github.com/rtsync/rwrnlp/internal/analysis"
	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/sim"
	"github.com/rtsync/rwrnlp/internal/workload"
)

func TestBoundMonitorAnalyticViolation(t *testing.T) {
	bm := NewBoundMonitor(4)
	pl := NewPipeline(Sinks{Bounds: bm})
	bm.SetAnalytic(10, 10) // read bound 20, write bound 60

	// Read satisfied within bound.
	pl.Observe(ev(0, core.EvIssued, 1, core.KindRead))
	pl.Observe(ev(20, core.EvSatisfied, 1, core.KindRead))
	// Read satisfied beyond bound: delay 21 > 20.
	pl.Observe(ev(0, core.EvIssued, 2, core.KindRead))
	pl.Observe(ev(21, core.EvSatisfied, 2, core.KindRead))
	// Write within bound: delay 60.
	pl.Observe(ev(0, core.EvIssued, 3, core.KindWrite))
	pl.Observe(ev(60, core.EvSatisfied, 3, core.KindWrite))

	rep := bm.Report()
	if rep.Checked != 3 {
		t.Errorf("Checked = %d, want 3", rep.Checked)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Req != 2 {
		t.Fatalf("Violations = %v, want exactly req 2", rep.Violations)
	}
	if rep.Ok() {
		t.Error("Ok() = true with a violation present")
	}
	if !strings.Contains(rep.String(), "VIOLATION") {
		t.Errorf("report text lacks VIOLATION:\n%s", rep.String())
	}
}

// TestBoundMonitorObservedEnvelope verifies the candidate/re-filter logic:
// a delay that exceeds the envelope known at satisfaction time but not the
// final envelope must not be reported.
func TestBoundMonitorObservedEnvelope(t *testing.T) {
	bm := NewBoundMonitor(2)
	pl := NewPipeline(Sinks{Bounds: bm})

	// Req 1 (write): satisfied immediately, CS of 50 → obsLw=50 afterwards.
	pl.Observe(ev(0, core.EvIssued, 1, core.KindWrite))
	pl.Observe(ev(0, core.EvSatisfied, 1, core.KindWrite))
	// Req 2 (read): issued t=10, satisfied t=40 — delay 30 exceeds the
	// current envelope (obsLr=obsLw=0 → bound 0) and becomes a candidate.
	pl.Observe(ev(10, core.EvIssued, 2, core.KindRead))
	pl.Observe(ev(40, core.EvSatisfied, 2, core.KindRead))
	// Req 1 completes at t=50: CS length 50, envelope grows to cover req 2.
	pl.Observe(ev(50, core.EvCompleted, 1, core.KindWrite))
	pl.Observe(ev(60, core.EvCompleted, 2, core.KindRead))

	rep := bm.Report()
	if rep.Checked != 2 {
		t.Errorf("Checked = %d, want 2", rep.Checked)
	}
	if rep.Lw != 50 {
		t.Errorf("observed Lw = %d, want 50", rep.Lw)
	}
	if !rep.Ok() {
		t.Errorf("delay 30 within final envelope (bound %d) still reported: %v",
			rep.Lr+rep.Lw, rep.Violations)
	}
}

func TestBoundMonitorObservedEnvelopeRealViolation(t *testing.T) {
	bm := NewBoundMonitor(2)
	pl := NewPipeline(Sinks{Bounds: bm})
	// One short write CS (10), then a read that waits 100 — far beyond any
	// envelope the stream can justify.
	pl.Observe(ev(0, core.EvIssued, 1, core.KindWrite))
	pl.Observe(ev(0, core.EvSatisfied, 1, core.KindWrite))
	pl.Observe(ev(10, core.EvCompleted, 1, core.KindWrite))
	pl.Observe(ev(10, core.EvIssued, 2, core.KindRead))
	pl.Observe(ev(110, core.EvSatisfied, 2, core.KindRead))
	pl.Observe(ev(111, core.EvCompleted, 2, core.KindRead))

	rep := bm.Report()
	if len(rep.Violations) != 1 || rep.Violations[0].Req != 2 {
		t.Fatalf("Violations = %v, want exactly req 2", rep.Violations)
	}
	if rep.Violations[0].Bound != rep.Lr+rep.Lw {
		t.Errorf("violation bound = %d, want final read bound %d",
			rep.Violations[0].Bound, rep.Lr+rep.Lw)
	}
}

// TestBoundMonitorUpgradePair: the write half's wait restarts at
// EvReadSegmentDone, so only the post-restart delay is checked.
func TestBoundMonitorUpgradePair(t *testing.T) {
	bm := NewBoundMonitor(2)
	pl := NewPipeline(Sinks{Bounds: bm})
	bm.SetAnalytic(10, 10) // write bound (2−1)·20 = 20

	rd := ev(0, core.EvIssued, 1, core.KindRead)
	rd.Pair = 2
	wr := ev(0, core.EvIssued, 2, core.KindWrite)
	wr.Pair = 1
	pl.Observe(rd)
	pl.Observe(wr)
	sat := ev(0, core.EvSatisfied, 1, core.KindRead)
	sat.Pair = 2
	pl.Observe(sat)
	done := ev(50, core.EvReadSegmentDone, 1, core.KindRead)
	done.Pair = 2
	pl.Observe(done)
	// Write half satisfied at t=65: per-wait delay 15 ≤ 20 even though the
	// pair has been in the system for 65.
	wsat := ev(65, core.EvSatisfied, 2, core.KindWrite)
	wsat.Pair = 1
	pl.Observe(wsat)

	if rep := bm.Report(); !rep.Ok() {
		t.Errorf("write half flagged despite per-wait delay within bound: %v", rep.Violations)
	}
}

func TestBoundMonitorSkipsIncremental(t *testing.T) {
	bm := NewBoundMonitor(2)
	pl := NewPipeline(Sinks{Bounds: bm})
	bm.SetAnalytic(1, 1)
	e := ev(0, core.EvIssued, 1, core.KindWrite)
	e.Incremental = true
	pl.Observe(e)
	sat := ev(1000, core.EvSatisfied, 1, core.KindWrite)
	sat.Incremental = true
	pl.Observe(sat)

	rep := bm.Report()
	if rep.Checked != 0 || rep.SkippedIncremental != 1 {
		t.Errorf("checked/skipped = %d/%d, want 0/1", rep.Checked, rep.SkippedIncremental)
	}
	if !rep.Ok() {
		t.Errorf("incremental request flagged: %v", rep.Violations)
	}
}

// TestBoundMonitorFig2 runs the paper's running example through the
// simulator with both monitor modes attached: Theorems 1–2 must hold.
func TestBoundMonitorFig2(t *testing.T) {
	sys := workload.Fig2System()
	analytic := NewBoundMonitor(sys.M)
	b := analysis.BoundsOf(sys)
	analytic.SetAnalytic(int64(b.Lr), int64(b.Lw))
	observed := NewBoundMonitor(sys.M)

	s, err := sim.New(sim.Config{
		System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
		Protocol: sim.ProtoRWRNLP, Horizon: 12, JobsPerTask: 1,
		CheckInvariants: true,
		Observers: []core.Observer{
			NewPipeline(Sinks{Bounds: analytic}), NewPipeline(Sinks{Bounds: observed}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	arep := analytic.Report()
	if arep.Checked == 0 {
		t.Fatal("analytic monitor checked nothing")
	}
	if !arep.Ok() {
		t.Errorf("Fig. 2 violates the analytic bounds:\n%s", arep)
	}
	orep := observed.Report()
	if !orep.Ok() {
		t.Errorf("Fig. 2 violates the observed-envelope bounds:\n%s", orep)
	}
	if orep.Lr == 0 && orep.Lw == 0 {
		t.Error("observed envelope stayed empty")
	}
}
