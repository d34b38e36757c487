package obs

import "github.com/rtsync/rwrnlp/internal/core"

// reqState is what the pipeline knows about one in-flight request: the single
// record kept per request between EvIssued and its retirement.
type reqState struct {
	kind        core.Kind
	incremental bool
	tag         any
	// waitStart is where the current wait began: issue time, or — for the
	// write half of an upgradeable pair — the read segment's finish time
	// (Sec. 3.6: the write half's bound applies to each wait separately, and
	// the optimistic read segment is not blocking).
	waitStart core.Time
	entitleT  core.Time // valid if entitled; never restarted
	satisfyT  core.Time // valid if satisfied
	entitled  bool
	satisfied bool
	// issueBlockers and entitleBlockers are the wait edges of the current
	// wait: the Blockers slices of the request's EvIssued and EvEntitled,
	// held by reference (core allocates them per event and hands them over).
	issueBlockers   []core.ReqID
	entitleBlockers []core.ReqID

	stalled bool // the watchdog has fired for this request
}

// transition is one protocol event as the sinks see it: the event, the state
// of its request after the event was applied, and what the step measured.
type transition struct {
	*core.Event
	// state is nil when the request's issuance was never seen (a flight dump
	// that starts mid-lifecycle); a retired request's state is its last.
	state *reqState
	// seq is the event's flight-recorder sequence; 0 without a recorder.
	seq uint64
	// delay is the wait that just ended (EvSatisfied: T − waitStart). For an
	// incremental request it spans hold phases between grants and is not an
	// acquisition delay in the Theorem 1/2 sense (Sec. 3.7).
	delay int64
	// entitleWait is T − entitleT on the EvSatisfied of a request that was
	// entitled first, else −1.
	entitleWait int64
	// cs is the critical-section length a satisfied request just ended
	// (EvCompleted, EvReadSegmentDone), else −1.
	cs int64
	// inflight is the number of incomplete requests after the event.
	inflight int
}

// Sinks are the consumers of one event stream, each nil when absent. They
// are served in the order listed, which is the order they depend on each
// other in: the flight recorder first, so the sequence a metrics exemplar
// carries and the dump a stall report embeds both include the event at hand.
//
// The metrics sink and the attributor keep no per-stream state and may serve
// any number of pipelines (the runtime lock shares one of each across its
// shards); a bound monitor or watchdog reads its pipeline's observed envelope
// and request table and belongs to exactly one.
type Sinks struct {
	Flight      *FlightRecorder
	Shard       int // Flight ring this stream records into
	Metrics     *ProtocolObserver
	Bounds      *BoundMonitor
	Attribution *Attributor
	Watchdog    *Watchdog
}

// Pipeline is the observability plane of one event stream — one shard of the
// runtime lock, one simulator run, one replayed dump. It decodes each
// core.Event once against the only request table: it applies the Sec. 3.6
// restart of an upgradeable pair's write half, retires requests on completion
// and cancellation, counts concurrency, tracks the observed CS maxima, and
// hands the result to its sinks as one transition.
//
// Delivery must be serialised by the caller (the shard mutex; the simulator
// is single-threaded), and so must Watchdog.Poll and BoundMonitor.Report
// against it. A consumer attached alone is a pipeline of one sink.
type Pipeline struct {
	sinks Sinks
	// Raw receives every event, undecoded, after the sinks: trace recorders,
	// the Perfetto builder. It may be replaced between events.
	Raw core.Observer

	table map[core.ReqID]*reqState
	// Stream-derived parts of the Theorem 1/2 envelope (Envelope.over): the
	// longest non-incremental read and write critical sections and the most
	// requests ever incomplete at once.
	obsLr, obsLw int64
	maxInflight  int
}

// NewPipeline assembles the sinks over a fresh request table.
func NewPipeline(s Sinks) *Pipeline {
	p := &Pipeline{sinks: s}
	if s.Metrics != nil || s.Bounds != nil || s.Attribution != nil || s.Watchdog != nil {
		p.table = map[core.ReqID]*reqState{}
	}
	if s.Bounds != nil {
		s.Bounds.stream = p
	}
	if s.Watchdog != nil {
		s.Watchdog.stream = p
	}
	return p
}

// Observe implements core.Observer.
func (p *Pipeline) Observe(e core.Event) {
	t := transition{Event: &e, entitleWait: -1, cs: -1}
	s := &p.sinks
	if s.Flight != nil {
		t.seq = s.Flight.Record(s.Shard, e)
	}
	if p.table != nil { // some sink reads request state
		p.decode(&t)
		if s.Metrics != nil {
			s.Metrics.consume(&t)
		}
		if s.Bounds != nil {
			s.Bounds.consume(&t)
		}
		if s.Attribution != nil {
			s.Attribution.consume(&t)
		}
		if s.Watchdog != nil {
			s.Watchdog.consume(&t)
		}
	}
	if p.Raw != nil {
		p.Raw.Observe(e)
	}
}

// decode applies t's event to the request table and fills in the rest of t.
func (p *Pipeline) decode(t *transition) {
	e := t.Event
	r := p.table[e.Req]
	switch e.Type {
	case core.EvIssued:
		r = &reqState{
			kind:          e.Kind,
			incremental:   e.Incremental,
			tag:           e.Tag,
			waitStart:     e.T,
			issueBlockers: e.Blockers,
		}
		p.table[e.Req] = r
		if n := len(p.table); n > p.maxInflight {
			p.maxInflight = n
		}

	case core.EvEntitled:
		if r != nil {
			r.entitled, r.entitleT, r.entitleBlockers = true, e.T, e.Blockers
		}

	case core.EvSatisfied:
		if r != nil {
			r.satisfied, r.satisfyT = true, e.T
			t.delay = int64(e.T - r.waitStart)
			if r.entitled {
				t.entitleWait = int64(e.T - r.entitleT)
			}
		}

	case core.EvCompleted, core.EvReadSegmentDone:
		if r != nil && r.satisfied {
			t.cs = int64(e.T - r.satisfyT)
			// An incremental request's hold is not a critical section of
			// the envelope: Theorems 1–2 bound each ask (Sec. 3.7).
			if !r.incremental {
				if r.kind == core.KindRead {
					p.obsLr = max(p.obsLr, t.cs)
				} else {
					p.obsLw = max(p.obsLw, t.cs)
				}
			}
		}
		delete(p.table, e.Req)
		if e.Type == core.EvReadSegmentDone {
			// The optimistic read half of an upgradeable pair finished: its
			// write-half peer — if it now upgrades — starts a fresh wait at
			// this instant, and the wait edges of the pair's issuance are
			// stale.
			if peer := p.table[e.Pair]; peer != nil && !peer.satisfied {
				peer.waitStart = e.T
				peer.issueBlockers, peer.entitleBlockers = nil, nil
			}
		}

	case core.EvCanceled:
		delete(p.table, e.Req)
	}
	t.state = r
	t.inflight = len(p.table)
}

// observed completes a consumer's configured envelope from this stream (from
// nothing, for a consumer no pipeline was built over).
func (p *Pipeline) observed(cfg Envelope) Envelope {
	if p == nil {
		return cfg
	}
	return cfg.over(p.obsLr, p.obsLw, p.maxInflight)
}
