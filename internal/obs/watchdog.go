package obs

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"

	"github.com/rtsync/rwrnlp/internal/core"
)

// Watchdog is the pipeline's liveness sink: it fires when a request has been
// waiting longer than its Theorem 1/2 envelope times a configurable slack,
// complementing the BoundMonitor (which verdicts only requests that DO get
// satisfied; a stranded request never reaches it). On firing it captures a
// StallReport: the stalled request, how long it waited versus its bound, and
// optionally a flight-recorder dump plus a goroutine profile, so the stall
// can be diagnosed post hoc.
//
// Envelope: like the BoundMonitor, the watchdog runs in observed-envelope
// mode by default (no checks fire until at least one critical section
// completed) or in analytic mode via SetAnalytic; m is the configured
// processor count, or — when zero — the maximum concurrency its pipeline has
// observed (see Envelope).
//
// Checks run on every transition against that event's time, and via
// Poll(now) for callers with their own clock (the runtime lock's tick plane,
// wall-clock timers). Each request fires at most once. Incremental requests
// are exempt (their span includes hold phases, Sec. 3.7); the write half of
// an upgradeable pair is timed per wait (Sec. 3.6, see reqState.waitStart).
//
// The watchdog scans its pipeline's request table and keeps only its firings;
// those are guarded by a mutex taken when a request fires or a report is
// read, so Firings and Reports are safe from any goroutine. The OnStall
// callback is invoked without that lock held, so it may call back into the
// watchdog (but must not call into the RSM, per the Observer contract).
type Watchdog struct {
	env    Envelope  // configuration: M (0 = dynamic), and Lr/Lw if analytic
	stream *Pipeline // set by NewPipeline; the table and observed envelope
	slack  float64

	flight    *FlightRecorder
	goroutine bool
	onStall   func(StallReport)
	keep      int

	now core.Time // high-water mark of observed event and Poll times

	mu      sync.Mutex
	fired   int64
	reports []StallReport
}

// WatchdogConfig configures a Watchdog. The zero value is usable: observed
// envelope, dynamic m, slack 4, no capture sinks.
type WatchdogConfig struct {
	// M is the processor count for Theorem 2's (m−1) factor; 0 tracks the
	// maximum observed concurrency instead.
	M int
	// Slack multiplies the envelope before comparison (values <= 0 mean 4).
	// Slack absorbs charged overheads (queue maintenance, wakeup latency)
	// that the pure-protocol bounds do not model.
	Slack float64
	// Flight, when set, is dumped into each StallReport.
	Flight *FlightRecorder
	// GoroutineProfile attaches a text goroutine profile to each report.
	GoroutineProfile bool
	// OnStall is called for each firing (after internal state is updated,
	// no locks held). May be nil; reports are retained either way.
	OnStall func(StallReport)
	// Keep bounds the retained report list (<= 0 means 8).
	Keep int
}

// DefaultWatchdogSlack is the envelope multiplier used when none is given.
const DefaultWatchdogSlack = 4.0

// NewWatchdog creates a watchdog; attach it to an event stream as the
// Watchdog sink of a Pipeline.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		env:       Envelope{M: cfg.M},
		slack:     cfg.Slack,
		flight:    cfg.Flight,
		goroutine: cfg.GoroutineProfile,
		onStall:   cfg.OnStall,
		keep:      cfg.Keep,
	}
	if w.slack <= 0 {
		w.slack = DefaultWatchdogSlack
	}
	if w.keep <= 0 {
		w.keep = 8
	}
	return w
}

// SetAnalytic switches to a fixed a-priori envelope (see BoundMonitor).
// Call before any events are observed.
func (w *Watchdog) SetAnalytic(lr, lw int64) {
	w.env.Analytic, w.env.Lr, w.env.Lw = true, lr, lw
}

// StallReport describes one watchdog firing.
type StallReport struct {
	Req       core.ReqID `json:"req"`
	Kind      core.Kind  `json:"kind"`
	Tag       string     `json:"tag,omitempty"`
	WaitStart core.Time  `json:"wait_start"`
	Now       core.Time  `json:"now"`
	Waited    int64      `json:"waited"`
	Bound     int64      `json:"bound"` // envelope × slack at firing time
	Analytic  bool       `json:"analytic"`
	Lr        int64      `json:"lr"`
	Lw        int64      `json:"lw"`
	M         int        `json:"m"`
	Slack     float64    `json:"slack"`
	// Dump is the flight-recorder snapshot taken at firing, if a recorder
	// was configured.
	Dump *FlightDump `json:"dump,omitempty"`
	// GoroutineProfile is the debug=1 text profile, if enabled.
	GoroutineProfile []byte `json:"goroutine_profile,omitempty"`
}

func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "STALL req=%d (%s)", r.Req, r.Kind)
	if r.Tag != "" {
		fmt.Fprintf(&b, " tag=%s", r.Tag)
	}
	mode := "observed"
	if r.Analytic {
		mode = "analytic"
	}
	fmt.Fprintf(&b, ": waited %d since t=%d (now %d) > bound %d (%s Lr=%d Lw=%d m=%d slack=%.1f)",
		r.Waited, r.WaitStart, r.Now, r.Bound, mode, r.Lr, r.Lw, r.M, r.Slack)
	return b.String()
}

func (w *Watchdog) consume(t *transition) {
	w.deliver(w.check(t.T))
}

// Poll checks all pending requests against an external clock (shard ticks or
// wall time, same units as the observed events) and returns the number of
// new firings. now values behind the event high-water mark are ignored. Like
// event delivery itself, Poll must be serialised with its pipeline.
func (w *Watchdog) Poll(now core.Time) int {
	fired := w.check(now)
	w.deliver(fired)
	return len(fired)
}

// check advances the clock to now and scans the pipeline's pending requests
// against it, returning the reports to deliver.
func (w *Watchdog) check(now core.Time) []StallReport {
	if w.stream == nil {
		return nil
	}
	w.now = max(w.now, now)
	env := w.stream.observed(w.env).alarm()
	if !env.Analytic && env.Lr+env.Lw == 0 {
		return nil // envelope not warmed up yet
	}
	var out []StallReport
	for id, p := range w.stream.table {
		if p.satisfied || p.stalled || p.incremental {
			continue
		}
		bound := int64(float64(env.Bound(p.kind)) * w.slack)
		waited := int64(w.now - p.waitStart)
		if waited <= bound {
			continue
		}
		p.stalled = true
		r := StallReport{
			Req:       id,
			Kind:      p.kind,
			WaitStart: p.waitStart,
			Now:       w.now,
			Waited:    waited,
			Bound:     bound,
			Analytic:  env.Analytic,
			Lr:        env.Lr,
			Lw:        env.Lw,
			M:         env.M,
			Slack:     w.slack,
		}
		if p.tag != nil {
			r.Tag = tagString(p.tag)
		}
		if w.flight != nil {
			d := w.flight.Dump()
			r.Dump = &d
		}
		if w.goroutine {
			var buf bytes.Buffer
			if prof := pprof.Lookup("goroutine"); prof != nil {
				_ = prof.WriteTo(&buf, 1)
			}
			r.GoroutineProfile = buf.Bytes()
		}
		out = append(out, r)
	}
	if len(out) > 0 {
		w.mu.Lock()
		w.fired += int64(len(out))
		w.reports = append(w.reports, out...)
		if len(w.reports) > w.keep {
			w.reports = w.reports[len(w.reports)-w.keep:]
		}
		w.mu.Unlock()
	}
	return out
}

// deliver invokes the callback, no lock held.
func (w *Watchdog) deliver(reports []StallReport) {
	if w.onStall == nil {
		return
	}
	for _, r := range reports {
		w.onStall(r)
	}
}

// Firings reports how many stalls have fired so far.
func (w *Watchdog) Firings() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

// Reports returns the retained stall reports, oldest first.
func (w *Watchdog) Reports() []StallReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]StallReport(nil), w.reports...)
}
