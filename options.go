package rwrnlp

import (
	"time"

	"github.com/rtsync/rwrnlp/internal/obs"
)

// config is the resolved configuration of a Protocol.
type config struct {
	placeholders bool
	spin         bool
	selfCheck    bool
	metrics      bool
	fast         FastPathConfig

	flightDepth int                 // per-shard flight ring slots; 0 disables
	watchdog    *obs.WatchdogConfig // nil disables the stall watchdog
	attrTopK    int                 // 0 disables causal attribution
	tsInterval  time.Duration       // time-series capture interval; 0 disables
	tsCapacity  int                 // time-series ring capacity; 0 = default
}

func defaultConfig() config {
	return config{fast: FastPathConfig{Readers: true, Writers: true}}
}

// FastPathConfig is the unified configuration of the lock-free fast paths
// (see WithFastPath). The zero value disables both planes; a Protocol built
// without WithFastPath runs with both enabled.
type FastPathConfig struct {
	// Readers enables the BRAVO-style reader fast path: an all-read
	// acquisition within one component, admitted while the component has no
	// write-capable request in flight, publishes its read set into a padded
	// per-shard slot array with atomic stores only — no shard mutex, no RSM.
	// Writers close a per-shard gate and migrate in-flight fast readers into
	// the RSM as surrogate read requests before issuing, so grant decisions
	// match the all-slow baseline exactly (fastpath.go).
	Readers bool

	// Writers enables the uncontended-writer fast path: a write-capable
	// acquisition within one component, admitted while the component's RSM
	// is empty and no fast reader is in flight, claims the whole component
	// with one CAS on a per-shard writer word. The first conflicting request
	// revokes the claim BRAVO-style, materializing the fast writer as a
	// surrogate write request in the RSM; grant decisions thereafter match
	// the all-slow baseline (fastpath.go).
	Writers bool
}

// enabled reports whether any fast-path plane is on (the shard allocates
// its slot array and gate machinery only then).
func (fc FastPathConfig) enabled() bool { return fc.Readers || fc.Writers }

// Option configures a Protocol at construction:
//
//	p := rwrnlp.New(spec, rwrnlp.WithPlaceholders(), rwrnlp.WithMetrics())
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithPlaceholders enables the Sec. 3.4 optimization (recommended): writers
// enqueue placeholders in the write queues of read-shared resources instead
// of locking them, strictly increasing concurrency with the same worst-case
// bounds.
func WithPlaceholders() Option {
	return optionFunc(func(c *config) { c.placeholders = true })
}

// WithSpin makes waiters busy-wait (yielding from the first iteration, then
// backing off) instead of blocking on a channel. Spinning mirrors the paper's
// Rule-S1 variant and has lower wake-up latency; blocking is kinder to mixed
// workloads. Context-aware waits always block regardless of this option.
func WithSpin() Option {
	return optionFunc(func(c *config) { c.spin = true })
}

// WithSelfCheck verifies the protocol's structural invariants (mutual
// exclusion, Prop. E10, queue order, Lemma 6, …) after every invocation —
// per component shard — and panics on a violation. Costly; for bring-up and
// tests.
func WithSelfCheck() Option {
	return optionFunc(func(c *config) { c.selfCheck = true })
}

// WithMetrics enables the observability layer (internal/obs): protocol event
// counters and tick-valued histograms, fed by every shard's pipeline into
// one shared registry, per-shard acquire/contention counters
// (shard-labeled names), plus wall-clock acquisition/blocking/CS histograms
// recorded directly on the acquisition path. Retrieve with Protocol.Metrics;
// serve with Protocol.DebugMux. When disabled the only cost on the
// acquisition path is a nil check.
func WithMetrics() Option {
	return optionFunc(func(c *config) { c.metrics = true })
}

// WithFastPath replaces the Protocol's fast-path configuration wholesale
// with fc: which planes run lock-free (Readers — the BRAVO visible-readers
// table; Writers — the single-CAS uncontended-writer word). The zero
// FastPathConfig disables both planes and routes every acquisition through
// the RSM — do that when every acquisition must appear in Stats/Snapshot and
// the protocol event stream (a fast acquisition is visible there only if a
// conflicting request migrated it; otherwise its only telemetry is the
// per-shard fastpath_* counters), or when benchmarking the pure RSM path.
func WithFastPath(fc FastPathConfig) Option {
	return optionFunc(func(c *config) { c.fast = fc })
}

// WithFlightRecorder enables the black-box flight recorder: every protocol
// event (with its causal wait edges) is copied into a bounded lock-free ring
// per shard, holding the perShard most recent events (values <= 0 select
// obs.DefaultFlightDepth). Dump the rings any time with
// Protocol.FlightRecorder().Dump() — or over HTTP via Protocol.DebugMux —
// and render the dump with cmd/flightdump or as a Perfetto trace. The ring
// write is a handful of stores per event; when disabled, the only cost on
// the event path is a nil check. Fast-path acquisitions bypass the RSM and
// are recorded only if a conflicting request migrated them (see
// WithFastPath).
func WithFlightRecorder(perShard int) Option {
	if perShard <= 0 {
		perShard = obs.DefaultFlightDepth
	}
	return optionFunc(func(c *config) { c.flightDepth = perShard })
}

// WithStallWatchdog arms a per-shard stall watchdog: if a request waits
// longer than its Theorem 1/2 envelope × cfg.Slack (in that shard's logical
// ticks — one tick per shard invocation), the watchdog fires, retains a
// StallReport, and invokes cfg.OnStall with a flight-recorder dump (when
// WithFlightRecorder is also set and cfg.Flight is nil) and optionally a
// goroutine profile. Each shard gets its own watchdog so tick clocks never
// mix; firings and reports aggregate via Protocol.WatchdogFirings and
// Protocol.StallReports. Checks are event-driven: a stall is detected when
// the shard next processes any invocation. The OnStall callback must not
// call back into the Protocol's acquisition paths.
func WithStallWatchdog(cfg WatchdogConfig) Option {
	return optionFunc(func(c *config) { c.watchdog = &cfg })
}

// WithAttribution enables causal blocking attribution: an obs.Attributor
// consumes the event stream's wait edges and decomposes every acquisition
// delay into the paper-aligned components (reader behind entitled writer /
// entitled wait, writer queue wait / blocked by read phase), keeping the
// topK worst blocking chains (<= 0 means 10). Retrieve the report with
// Protocol.Attribution. With WithMetrics also set, the component histograms
// land in the shared registry (attr_* series); otherwise they go to a
// private one. The runtime-only components — cross-component slow path and
// fast-path revocation penalty — are recorded as wall-clock histograms
// (attr_slow_path_ns, attr_fastpath_revocation_ns).
func WithAttribution(topK int) Option {
	if topK <= 0 {
		topK = 10
	}
	return optionFunc(func(c *config) { c.attrTopK = topK })
}

// WithTimeSeries enables continuous telemetry (implies WithMetrics): a
// bounded obs.TimeSeries ring captures a metrics snapshot every interval
// (<= 0 selects one second), retaining capacity samples (<= 0 selects
// obs.DefaultTimeSeriesCapacity), so rates, windowed tail quantiles, and
// Theorem 1/2 bound utilization are queryable over "the last N seconds" —
// via Protocol.TimeSeries or the /debug/rnlp/timeseries route of
// Protocol.DebugMux. The capture goroutine starts with the Protocol; call
// Protocol.Close to stop it.
func WithTimeSeries(interval time.Duration, capacity int) Option {
	return optionFunc(func(c *config) {
		c.metrics = true
		if interval <= 0 {
			interval = time.Second
		}
		c.tsInterval = interval
		c.tsCapacity = capacity
	})
}
