package obs

import (
	"testing"

	"github.com/rtsync/rwrnlp/internal/core"
)

// ev builds a minimal protocol event for observer tests.
func ev(t core.Time, typ core.EventType, req core.ReqID, kind core.Kind) core.Event {
	return core.Event{T: t, Type: typ, Req: req, Kind: kind}
}

func TestProtocolObserverLifecycle(t *testing.T) {
	m := NewMetrics()
	po := NewPipeline(Sinks{Metrics: NewProtocolObserver(m)})

	// Read req 1: issued t=0, entitled t=2, satisfied t=5, completed t=9.
	po.Observe(ev(0, core.EvIssued, 1, core.KindRead))
	po.Observe(ev(2, core.EvEntitled, 1, core.KindRead))
	po.Observe(ev(5, core.EvSatisfied, 1, core.KindRead))
	// Write req 2: issued and satisfied at t=6 (immediate), completed t=8.
	po.Observe(ev(6, core.EvIssued, 2, core.KindWrite))
	po.Observe(ev(6, core.EvSatisfied, 2, core.KindWrite))
	po.Observe(ev(8, core.EvCompleted, 2, core.KindWrite))
	po.Observe(ev(9, core.EvCompleted, 1, core.KindRead))

	s := m.Snapshot()
	if got := s.Counters[MIssued]; got != 2 {
		t.Errorf("%s = %d, want 2", MIssued, got)
	}
	if got := s.Counters[MImmediate]; got != 1 {
		t.Errorf("%s = %d, want 1", MImmediate, got)
	}
	if h := s.Hists[MAcqDelayRead]; h.Count != 1 || h.Max != 5 {
		t.Errorf("%s = %+v, want one sample of 5", MAcqDelayRead, h)
	}
	if h := s.Hists[MAcqDelayWrite]; h.Count != 1 || h.Max != 0 {
		t.Errorf("%s = %+v, want one sample of 0", MAcqDelayWrite, h)
	}
	if h := s.Hists[MEntitlementWait]; h.Count != 1 || h.Max != 3 {
		t.Errorf("%s = %+v, want one sample of 3", MEntitlementWait, h)
	}
	if h := s.Hists[MCSLengthRead]; h.Count != 1 || h.Max != 4 {
		t.Errorf("%s = %+v, want one sample of 4", MCSLengthRead, h)
	}
	if h := s.Hists[MCSLengthWrite]; h.Count != 1 || h.Max != 2 {
		t.Errorf("%s = %+v, want one sample of 2", MCSLengthWrite, h)
	}
	if got := s.Gauges[MInflight]; got != 0 {
		t.Errorf("%s = %d, want 0 after all completions", MInflight, got)
	}
	if got := s.Gauges[MHolders]; got != 0 {
		t.Errorf("%s = %d, want 0 after all completions", MHolders, got)
	}
	if h := s.Hists[MQueueDepth]; h.Count != 2 || h.Max != 2 {
		t.Errorf("%s = %+v, want two samples, max 2", MQueueDepth, h)
	}
}

// TestProtocolObserverUpgradePairReset verifies the Sec. 3.6 accounting: the
// write half's wait restarts when the read segment finishes, so its
// acquisition delay is measured per wait, not from the pair's issue time.
func TestProtocolObserverUpgradePairReset(t *testing.T) {
	m := NewMetrics()
	po := NewPipeline(Sinks{Metrics: NewProtocolObserver(m)})

	pair := func(t_ core.Time, typ core.EventType, req, peer core.ReqID, kind core.Kind) core.Event {
		e := ev(t_, typ, req, kind)
		e.Pair = peer
		return e
	}
	// Pair issued at t=0: read half 10, write half 11.
	po.Observe(pair(0, core.EvIssued, 10, 11, core.KindRead))
	po.Observe(pair(0, core.EvIssued, 11, 10, core.KindWrite))
	// Read half satisfied immediately; read segment runs until t=20.
	po.Observe(pair(0, core.EvSatisfied, 10, 11, core.KindRead))
	po.Observe(pair(20, core.EvReadSegmentDone, 10, 11, core.KindRead))
	// Write half satisfied at t=23: delay must be 3 (from t=20), not 23.
	po.Observe(pair(23, core.EvSatisfied, 11, 10, core.KindWrite))
	po.Observe(pair(29, core.EvCompleted, 11, 10, core.KindWrite))

	s := m.Snapshot()
	if h := s.Hists[MAcqDelayWrite]; h.Count != 1 || h.Max != 3 {
		t.Errorf("%s = %+v, want one sample of 3 (wait restarts at read-segment end)", MAcqDelayWrite, h)
	}
	if h := s.Hists[MCSLengthRead]; h.Count != 1 || h.Max != 20 {
		t.Errorf("%s = %+v, want read segment of 20", MCSLengthRead, h)
	}
	if got := s.Counters[MReadSegmentsDone]; got != 1 {
		t.Errorf("%s = %d, want 1", MReadSegmentsDone, got)
	}
	if got := s.Gauges[MInflight]; got != 0 {
		t.Errorf("%s = %d, want 0", MInflight, got)
	}
}

// TestProtocolObserverIncremental verifies incremental requests land in
// their own delay histogram (their span includes hold phases).
func TestProtocolObserverIncremental(t *testing.T) {
	m := NewMetrics()
	po := NewPipeline(Sinks{Metrics: NewProtocolObserver(m)})

	e := ev(0, core.EvIssued, 5, core.KindWrite)
	e.Incremental = true
	po.Observe(e)
	po.Observe(ev(4, core.EvGranted, 5, core.KindWrite))
	sat := ev(30, core.EvSatisfied, 5, core.KindWrite)
	sat.Incremental = true
	po.Observe(sat)

	s := m.Snapshot()
	if h := s.Hists[MAcqDelayIncremental]; h.Count != 1 || h.Max != 30 {
		t.Errorf("%s = %+v, want one sample of 30", MAcqDelayIncremental, h)
	}
	if h := s.Hists[MAcqDelayWrite]; h.Count != 0 {
		t.Errorf("%s = %+v, want incremental delay excluded", MAcqDelayWrite, h)
	}
	if got := s.Counters[MIncGrants]; got != 1 {
		t.Errorf("%s = %d, want 1", MIncGrants, got)
	}
}

// TestProtocolObserverLiveRSM runs a real RSM sequence through the observer
// and cross-checks the counters against the RSM's own statistics.
func TestProtocolObserverLiveRSM(t *testing.T) {
	m := NewMetrics()
	po := NewPipeline(Sinks{Metrics: NewProtocolObserver(m)})
	rsm := core.NewRSM(core.NewSpecBuilder(3).Build(), core.Options{})
	rsm.SetObserver(po)

	w, err := rsm.Issue(1, nil, []core.ResourceID{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rsm.Issue(2, []core.ResourceID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(5, w); err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(9, r); err != nil {
		t.Fatal(err)
	}

	s := m.Snapshot()
	st := rsm.Stats()
	if got := s.Counters[MIssued]; got != int64(st.Issued) {
		t.Errorf("%s = %d, want %d", MIssued, got, st.Issued)
	}
	if got := s.Counters[MSatisfied]; got != int64(st.Satisfied) {
		t.Errorf("%s = %d, want %d", MSatisfied, got, st.Satisfied)
	}
	if got := s.Counters[MCompleted]; got != int64(st.Completed) {
		t.Errorf("%s = %d, want %d", MCompleted, got, st.Completed)
	}
	// The reader waited behind the writer: 5−2 = 3 ticks.
	if h := s.Hists[MAcqDelayRead]; h.Count != 1 || h.Max != 3 {
		t.Errorf("%s = %+v, want one sample of 3", MAcqDelayRead, h)
	}
}
