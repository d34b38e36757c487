// Package rwrnlp provides a goroutine-facing implementation of the R/W RNLP
// — the multi-resource real-time reader/writer locking protocol of Ward and
// Anderson (IPDPS 2014): fine-grained nested locking over a set of declared
// resources, with concurrent readers, phase-fair reader/writer alternation,
// deadlock freedom by construction, R/W mixing (Sec. 3.5), read-to-write
// upgrading (Sec. 3.6), and incremental locking (Sec. 3.7).
//
// Usage:
//
//	b := rwrnlp.NewSpecBuilder(3)            // resources 0, 1, 2
//	b.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil) // a potential 2-resource read
//	p := rwrnlp.New(b.Build(), rwrnlp.WithPlaceholders())
//
//	tok, _ := p.Acquire(ctx, []rwrnlp.ResourceID{0, 1}, nil) // read lock 0 and 1
//	defer p.Release(tok)
//
// The protocol requires the shapes of potential multi-resource requests to
// be declared up front (the same a-priori knowledge classical real-time
// protocols like the PCP assume): the declared read sets drive the
// write-expansion/placeholder machinery that makes the worst-case reader
// blocking O(1). Issuing an undeclared multi-resource READ request weakens
// the writer FIFO guarantees; single-resource requests never need
// declaration.
//
// # Sharding
//
// The declared footprints partition the resources into connected components
// (core.Spec computes them), and requests confined to different components
// can never conflict with — nor even share a queue with — each other. New
// therefore runs one RSM behind one mutex per component, so acquisitions on
// disjoint components proceed independently; Rule G4's total order is only
// needed among requests that can interact, so the protocol's guarantees
// (Theorems 1 and 2) hold per component exactly as under one global RSM.
// Every declared request lies within one component by construction and takes
// this fast path. An undeclared request spanning several components is still
// served, by a slow path that acquires each component's slice in ascending
// component order (deadlock-free: all hold-wait edges point up) — but such a
// request is satisfied piecewise, not atomically, and inherits no FIFO bound
// across components. The shards are exactly the Spec's components: a system
// that needs one total order over all of its resources declares a request
// over all of them (a write-only declaration adds no read sharing), which
// makes them one component and therefore one shard.
//
// Real-time caveat: the Go runtime scheduler does not expose real-time
// priorities, so this package preserves the protocol's ordering semantics
// (who is satisfied before whom: timestamp-ordered writers, phase-fair
// alternation, entitlement) but cannot enforce the paper's timing bounds,
// which depend on Properties P1/P2 of an RTOS progress mechanism. The
// repository's simulator (internal/sim) validates the timing claims under
// the paper's exact model; this package is the practical concurrency
// library distilled from them.
package rwrnlp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// ResourceID identifies a shared resource (dense, zero-based).
type ResourceID = core.ResourceID

// Spec is the immutable description of the resource system: the number of
// resources and the read-sharing relation derived from declared potential
// requests.
type Spec = core.Spec

// SpecBuilder declares the system's potential requests. See
// core.SpecBuilder; re-exported for the public API.
type SpecBuilder = core.SpecBuilder

// NewSpecBuilder creates a builder for a system of q resources.
func NewSpecBuilder(q int) *SpecBuilder { return core.NewSpecBuilder(q) }

// Sentinel errors of the public API. Compare with errors.Is; messages may
// carry wrapped detail.
var (
	// ErrEmptyRequest reports an acquisition that names no resources.
	ErrEmptyRequest = core.ErrEmptyRequest

	// ErrUnknownResource reports a resource ID outside [0, q).
	ErrUnknownResource = core.ErrUnknownResource

	// ErrAlreadyReleased reports a second Release of the same Token (or
	// Incremental/Upgradeable), or the release of a zero Token.
	ErrAlreadyReleased = errors.New("rwrnlp: already released")

	// ErrCrossComponent reports an incremental or upgradeable request whose
	// resources span multiple declared components. Those forms need one
	// atomic timestamp in one total order: declare the footprint, so that it
	// lies within a single component.
	ErrCrossComponent = errors.New("rwrnlp: request spans multiple resource components")
)

// Protocol is a ready-to-use R/W RNLP instance. All methods are safe for
// concurrent use.
type Protocol struct {
	cfg    config
	spec   *Spec
	shards []*shard

	// Observability (nil unless WithMetrics): protoObs is the metrics sink of
	// every shard's pipeline; the wall* histograms are resolved once so the
	// acquisition path never touches the registry.
	metrics   *obs.Metrics
	protoObs  *obs.ProtocolObserver
	slowPath  *obs.Counter
	wallAcqR  *obs.Histogram
	wallAcqW  *obs.Histogram
	wallBlock *obs.Histogram
	wallCS    *obs.Histogram

	// Causal attribution and black-box capture (each nil unless its option
	// was set): one attributor and one flight recorder serve every shard;
	// the watchdogs are per shard, so each one sees a single tick clock.
	attr         *obs.Attributor
	attrSlowNS   *obs.Histogram
	attrRevokeNS *obs.Histogram
	flight       *obs.FlightRecorder
	wdogs        []*obs.Watchdog

	// Continuous telemetry (nil unless WithTimeSeries): a bounded snapshot
	// ring whose capture goroutine runs from New until Close.
	ts *obs.TimeSeries

	// closeOnce makes Close idempotent and safe to race with itself; the
	// rnlpd service tier calls Close from session teardown and shutdown
	// paths that can overlap.
	closeOnce sync.Once
}

// Metrics re-exports the obs registry type for the public API.
type Metrics = obs.Metrics

// MetricsSnapshot re-exports the obs snapshot type for the public API.
type MetricsSnapshot = obs.Snapshot

// Attribution-layer re-exports (see WithAttribution, WithFlightRecorder,
// WithStallWatchdog).
type (
	// AttributionReport is the causal-attribution summary: per-component
	// delay totals plus the worst blocking chains.
	AttributionReport = obs.AttributionReport
	// BlockChain is one request's delay decomposition and wait edges.
	BlockChain = obs.BlockChain
	// ReqID identifies a request in chains and flight records.
	ReqID = core.ReqID
	// FlightRecorder is the bounded per-shard ring of recent protocol
	// events.
	FlightRecorder = obs.FlightRecorder
	// FlightDump is a serializable flight-recorder snapshot.
	FlightDump = obs.FlightDump
	// WatchdogConfig configures the stall watchdog (per shard).
	WatchdogConfig = obs.WatchdogConfig
	// StallReport describes one watchdog firing.
	StallReport = obs.StallReport
	// TimeSeries is the bounded snapshot ring behind WithTimeSeries.
	TimeSeries = obs.TimeSeries
	// TimeSeriesReport is a windowed rates/quantiles/bound-utilization query.
	TimeSeriesReport = obs.TimeSeriesReport
)

// New creates a Protocol for the given resource system: one RSM shard per
// declared resource component, always. With no options waiters block, there
// are no placeholders and no metrics; see the With… options.
func New(spec *Spec, opts ...Option) *Protocol {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o.apply(&cfg)
		}
	}
	n := spec.NumComponents()
	p := &Protocol{cfg: cfg, spec: spec}
	if cfg.metrics {
		p.metrics = obs.NewMetrics()
		p.protoObs = obs.NewProtocolObserver(p.metrics)
		p.slowPath = p.metrics.Counter(obs.MSlowPath)
		p.wallAcqR = p.metrics.Histogram(obs.MWallAcqReadNS)
		p.wallAcqW = p.metrics.Histogram(obs.MWallAcqWriteNS)
		p.wallBlock = p.metrics.Histogram(obs.MWallBlockNS)
		p.wallCS = p.metrics.Histogram(obs.MWallCSNS)
	}
	if cfg.attrTopK > 0 {
		reg := p.metrics
		if reg == nil {
			reg = obs.NewMetrics()
		}
		p.attr = obs.NewAttributor(reg, cfg.attrTopK)
		p.attrSlowNS = reg.Histogram(obs.AttrSlowPathNS)
		p.attrRevokeNS = reg.Histogram(obs.AttrFastRevocationNS)
	}
	if cfg.flightDepth > 0 {
		p.flight = obs.NewFlightRecorder(n, cfg.flightDepth)
	}
	if cfg.watchdog != nil {
		wc := *cfg.watchdog
		if wc.Flight == nil {
			wc.Flight = p.flight // may still be nil: reports just carry no dump
		}
		p.wdogs = make([]*obs.Watchdog, n)
		for i := range p.wdogs {
			p.wdogs[i] = obs.NewWatchdog(wc)
		}
	}
	p.shards = make([]*shard, n)
	for i := range p.shards {
		p.shards[i] = newShard(p, i, n)
	}
	if cfg.tsInterval > 0 {
		p.ts = obs.NewTimeSeries(p.metrics, cfg.tsInterval, cfg.tsCapacity)
		p.ts.Start()
	}
	return p
}

// TimeSeries returns the protocol's telemetry ring, or nil when
// WithTimeSeries was not set. Query it for windowed rates, tail quantiles,
// and bound utilization; it is also served at /debug/rnlp/timeseries by
// DebugMux.
func (p *Protocol) TimeSeries() *TimeSeries { return p.ts }

// Close releases the protocol's background resources — today the
// WithTimeSeries capture goroutine; tokens and shard state need no cleanup.
// The protocol remains usable for acquisitions after Close (telemetry simply
// stops accumulating history). Idempotent and safe to call concurrently —
// with itself and with in-flight Acquires/Releases; always nil.
func (p *Protocol) Close() error {
	p.closeOnce.Do(func() {
		if p.ts != nil {
			p.ts.Stop()
		}
	})
	return nil
}

// NumShards reports how many independent RSM shards the protocol runs: the
// number of declared resource components, Spec.NumComponents.
func (p *Protocol) NumShards() int { return len(p.shards) }

// shardOf returns the shard owning resource a.
func (p *Protocol) shardOf(a ResourceID) *shard { return p.shards[p.spec.Component(a)] }

// Metrics returns the protocol's metrics registry, or nil when metrics are
// disabled. Event-derived histograms are in logical protocol ticks (one tick
// per shard invocation); the wall_* histograms are wall-clock nanoseconds;
// the shard_* series carry a {shard=i} label.
func (p *Protocol) Metrics() *Metrics { return p.metrics }

// FlightRecorder returns the protocol's flight recorder, or nil when
// WithFlightRecorder was not set. Dump() is safe at any time, concurrent
// with the workload.
func (p *Protocol) FlightRecorder() *FlightRecorder { return p.flight }

// Attribution reports the causal blocking attribution gathered so far: the
// per-component delay decomposition and the worst blocking chains, with
// spans in logical shard ticks. The zero report is returned when
// WithAttribution was not set (check Checked == 0).
func (p *Protocol) Attribution() AttributionReport {
	if p.attr == nil {
		return AttributionReport{}
	}
	return p.attr.Report()
}

// WatchdogFirings reports how many stall-watchdog firings have occurred
// across all shards (0 when WithStallWatchdog was not set).
func (p *Protocol) WatchdogFirings() int64 {
	var total int64
	for _, w := range p.wdogs {
		total += w.Firings()
	}
	return total
}

// StallReports returns the retained stall reports of every shard watchdog.
func (p *Protocol) StallReports() []StallReport {
	var out []StallReport
	for _, w := range p.wdogs {
		out = append(out, w.Reports()...)
	}
	return out
}

// DebugMux serves the full observability surface of this protocol instance:
//
//	/metrics                metrics snapshot (JSON; ?format=text|openmetrics)
//	/debug/rnlp/flight      flight-recorder dump (JSON; ?format=perfetto)
//	/debug/rnlp/watchdog    stall-watchdog firings and reports
//	/debug/rnlp/timeseries  windowed rates/quantiles/bound utilization (?window=30s)
//	/debug/rnlp/attr        causal blocking attribution (JSON; ?format=text)
//	/debug/pprof/...        the standard pprof handlers
//	/healthz                "ok"
//
// Routes whose subsystem is disabled serve empty data.
func (p *Protocol) DebugMux() http.Handler {
	cfg := obs.DebugMuxConfig{
		Metrics:   p.metrics,
		Flight:    p.flight,
		Series:    p.ts,
		Watchdogs: p.wdogs,
	}
	if p.attr != nil {
		cfg.Attribution = p.Attribution
	}
	return obs.NewDebugMux(cfg)
}

// SetTracer installs a secondary observer receiving every protocol event —
// feed it a trace.Recorder to machine-check an execution against the
// paper's properties. Must be called before any acquisition; it replaces
// any tracer previously set (the sinks enabled by WithMetrics and the other
// observability options are unaffected). On a protocol built without any of
// those options this is what gives the RSMs an observer at all: until then
// they build no events. With several shards the
// tracer sees each shard's events in order but the shards interleave; the
// trace checker is insensitive to that, since cross-shard requests never
// conflict. (The argument type lives in an internal package; this hook is
// for in-module tooling, tests, and the examples.)
func (p *Protocol) SetTracer(o core.Observer) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.pipeline().Raw = o
		s.unlock()
	}
}

// nowNS reads the wall clock only when some consumer (metrics, the
// attribution wall-clock components) needs it, keeping the fully disabled
// acquisition path free of time syscalls.
func (p *Protocol) nowNS() int64 {
	if p.metrics == nil && p.attr == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// finishAcquire records a granted token's wall-clock acquisition metrics and
// stamps its satisfaction time. start/blockStart are nowNS readings
// (0 when metrics are disabled or the request never blocked).
func (p *Protocol) finishAcquire(tok *Token, start, blockStart int64, isWrite bool) {
	if p.metrics == nil {
		return
	}
	now := time.Now().UnixNano()
	if isWrite {
		p.wallAcqW.Observe(now - start)
	} else {
		p.wallAcqR.Observe(now - start)
	}
	if blockStart != 0 {
		p.wallBlock.Observe(now - blockStart)
	}
	tok.acqNS = now
}

// tokenPart is one additional component slice held by a slow-path Token.
type tokenPart struct {
	s     *shard
	id    core.ReqID
	wgate bool // this part closed its shard's writer gate
}

// Token identifies a held acquisition, to be passed to Release. The zero
// Token is not valid; releasing it (or releasing twice) returns
// ErrAlreadyReleased.
type Token struct {
	s  *shard
	id core.ReqID
	// acqNS is the wall-clock satisfaction time (0 when metrics are
	// disabled), letting Release attribute the critical-section length.
	acqNS int64
	// rest holds the higher-component slices of a multi-component slow-path
	// acquisition, ascending; nil on the fast path.
	rest []tokenPart
	// wgate marks a write-capable token whose Release reopens the shard's
	// writer gate (see fastpath.go).
	wgate bool
	// fastSeq/fastSlot identify a reader-fast-path acquisition
	// (fastSeq != 0): the claim sequence and slot to CAS free.
	fastSeq  uint64
	fastSlot int32
	// fastW identifies a writer-fast-path acquisition (fastW != 0): the
	// claim sequence to CAS off the shard's writer word.
	fastW uint64
}

// part is one component's slice of a request footprint.
type part struct {
	s           *shard
	read, write []ResourceID
}

// split validates the footprint and groups it by component, ascending,
// appending the parts to buf. The common case — all resources in one
// component, which every declared request satisfies by construction — is
// exactly one part, so a caller that passes a one-element array from its
// stack pays no allocation for it.
func (p *Protocol) split(buf []part, read, write []ResourceID) ([]part, error) {
	q := p.spec.NumResources()
	check := func(ids []ResourceID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= q {
				return fmt.Errorf("%w: resource %d not in [0,%d)", ErrUnknownResource, id, q)
			}
		}
		return nil
	}
	if err := check(read); err != nil {
		return nil, err
	}
	if err := check(write); err != nil {
		return nil, err
	}
	if len(read)+len(write) == 0 {
		return nil, ErrEmptyRequest
	}
	first, multi := -1, false
	for _, ids := range [2][]ResourceID{read, write} {
		for _, id := range ids {
			c := p.spec.Component(id)
			if first < 0 {
				first = c
			} else if c != first {
				multi = true
			}
		}
	}
	if !multi {
		return append(buf, part{s: p.shards[first], read: read, write: write}), nil
	}
	byComp := map[int]*part{}
	slice := func(ids []ResourceID, write bool) {
		for _, id := range ids {
			c := p.spec.Component(id)
			pt := byComp[c]
			if pt == nil {
				pt = &part{s: p.shards[c]}
				byComp[c] = pt
			}
			if write {
				pt.write = append(pt.write, id)
			} else {
				pt.read = append(pt.read, id)
			}
		}
	}
	slice(read, false)
	slice(write, true)
	comps := make([]int, 0, len(byComp))
	for c := range byComp {
		comps = append(comps, c)
	}
	sort.Ints(comps)
	for _, c := range comps {
		buf = append(buf, *byComp[c])
	}
	return buf, nil
}

// tagKey is the context key of ContextWithTag (unexported: collisions are
// impossible by construction).
type tagKey struct{}

// ContextWithTag returns a context carrying a request tag, pprof-label style:
// every RSM-path acquisition issued under the returned context stamps tag
// onto all of its core protocol events, so flight-recorder records,
// attribution chains, and OpenMetrics exemplars carry it. The rnlpd service
// tier uses string trace IDs as tags, which is what the cross-node trace
// stitching joins on; any fmt.Sprint-able value works. Fast-path hits bypass
// the RSM and are never stamped — tagging must not perturb the acquisition
// path it observes.
func ContextWithTag(ctx context.Context, tag any) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, tagKey{}, tag)
}

// TagFromContext returns the request tag installed by ContextWithTag, or nil.
func TagFromContext(ctx context.Context) any {
	if ctx == nil {
		return nil
	}
	return ctx.Value(tagKey{})
}

// ChainByTag returns the most recent retained blocking chain whose request
// carried the given tag (see ContextWithTag), with spans in logical shard
// ticks. It reports false when WithAttribution was not set, the tag was never
// seen, or its chain has been evicted — including when the tagged acquisition
// was a fast-path hit, which never reaches the attributor. The returned
// chain's BlockerTags field holds what BlockerTags would resolve for it, read
// under the same lock as the lookup.
func (p *Protocol) ChainByTag(tag string) (BlockChain, bool) {
	if p.attr == nil {
		return BlockChain{}, false
	}
	return p.attr.ChainByTag(tag)
}

// BlockerTags resolves the trace tags of a chain's blockers: for every
// request ID on the chain's issue/entitle wait edges whose own chain is still
// retained and carried a tag, the map holds reqID → tag. This is how the
// service tier names the blocking writer's trace in a cross-node wait span.
// Blockers that were untagged, fast-path hits, or already evicted are absent.
func (p *Protocol) BlockerTags(c BlockChain) map[uint64]string {
	if p.attr == nil {
		return nil
	}
	return p.attr.BlockerTags(c)
}

// Acquire blocks until read access to every resource in read and write
// access to every resource in write is held (Sec. 3.5 mixing: both sets may
// be non-empty). Multiple resources are acquired atomically with no
// deadlock risk — that is the point of the protocol. An empty request
// returns ErrEmptyRequest. If ctx is done before satisfaction, the request
// is withdrawn and ctx.Err() returned; when satisfaction races with
// cancellation, the acquisition wins and the caller owns the token (check
// the error, not the context). A nil ctx never cancels.
//
// A request spanning several components (necessarily undeclared) is served
// by the slow path: each component's slice is acquired in ascending
// component order, piecewise rather than atomically — see the package
// documentation.
func (p *Protocol) Acquire(ctx context.Context, read, write []ResourceID) (Token, error) {
	start := p.nowNS()
	var one [1]part
	parts, err := p.split(one[:0], read, write)
	if err != nil {
		return Token{}, err
	}
	isWrite := len(write) > 0
	fastMissed := false
	if len(parts) == 1 {
		s := parts[0].s
		var tok Token
		hit := false
		if !isWrite && s.fastR {
			tok, hit = s.fastAcquire(read)
			fastMissed = !hit
		} else if isWrite && s.fastW {
			tok, hit = s.fastWriteAcquire(read, write)
			fastMissed = !hit
		}
		if hit {
			p.finishAcquire(&tok, start, 0, isWrite)
			return tok, nil
		}
	} else if p.slowPath != nil {
		p.slowPath.Inc()
	}

	// One request per component slice, in ascending component order (one
	// slice for every declared footprint); on failure release what is held in
	// reverse. tok accumulates the held slices: the first in the token itself,
	// the rest in tok.rest.
	tag := TagFromContext(ctx)
	var tok Token
	var blockStart int64
	for i, pt := range parts {
		r := request{s: pt.s, gate: len(pt.write) > 0, read: pt.read, write: pt.write, tag: tag}
		if _, err := r.run(ctx, nil, nil, nil); err != nil {
			if i > 0 {
				_ = p.Release(tok)
			}
			return Token{}, err
		}
		if blockStart == 0 {
			blockStart = r.blockedAt
		}
		if i == 0 {
			tok.s, tok.id, tok.wgate = pt.s, r.id, r.gate
		} else {
			tok.rest = append(tok.rest, tokenPart{s: pt.s, id: r.id, wgate: r.gate})
		}
	}
	p.finishAcquire(&tok, start, blockStart, isWrite)
	if start != 0 {
		switch {
		case len(parts) > 1 && p.attrSlowNS != nil:
			// Cross-component slow path: piecewise acquisition time, outside any
			// per-component Theorem 1/2 bound.
			p.attrSlowNS.Observe(time.Now().UnixNano() - start)
		case fastMissed && p.attrRevokeNS != nil:
			// Revocation penalty: the wall-clock cost this fast-eligible request
			// paid for being routed through the RSM.
			p.attrRevokeNS.Observe(time.Now().UnixNano() - start)
		}
	}
	return tok, nil
}

// Read is shorthand for Acquire(ctx, resources, nil).
func (p *Protocol) Read(ctx context.Context, resources ...ResourceID) (Token, error) {
	return p.Acquire(ctx, resources, nil)
}

// Write is shorthand for Acquire(ctx, nil, resources).
func (p *Protocol) Write(ctx context.Context, resources ...ResourceID) (Token, error) {
	return p.Acquire(ctx, nil, resources)
}

// Release ends the critical section of a token, unlocking all its resources
// and satisfying whichever requests become eligible (their wakeups are
// signaled in one batch outside the shard lock). Releasing a token twice, or
// releasing the zero Token, returns ErrAlreadyReleased.
func (p *Protocol) Release(t Token) error {
	if t.s == nil {
		return ErrAlreadyReleased
	}
	if t.acqNS != 0 && p.wallCS != nil {
		p.wallCS.Observe(time.Now().UnixNano() - t.acqNS)
	}
	var firstErr error
	for i := len(t.rest) - 1; i >= 0; i-- {
		err := t.rest[i].s.release(t.rest[i].id)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if t.rest[i].wgate && err == nil {
			t.rest[i].s.writerExit()
		}
	}
	if t.fastSeq != 0 {
		if err := t.s.fastRelease(t); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	if t.fastW != 0 {
		if err := t.s.fastWriteRelease(t); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	err := t.s.release(t.id)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if t.wgate && err == nil {
		// The write-capable request completed: its RSM locks are gone, so
		// the writer gate reopens. A failed (double) release must not
		// decrement again.
		t.s.writerExit()
	}
	return firstErr
}

// Stats returns the protocol's activity counters, summed over all shards.
// Fast-path acquisitions (reader or writer plane) never reach the RSM and
// are not counted here; see the fastpath_* metrics (or
// WithFastPath(FastPathConfig{}) to route every acquisition through the
// RSM).
func (p *Protocol) Stats() core.Stats {
	var total core.Stats
	for _, s := range p.shards {
		s.mu.Lock()
		st := s.rsm.Stats()
		s.unlock()
		total.Issued += st.Issued
		total.Satisfied += st.Satisfied
		total.Completed += st.Completed
		total.Canceled += st.Canceled
		total.ImmediateSats += st.ImmediateSats
		total.Entitlements += st.Entitlements
		total.UpgradesTaken += st.UpgradesTaken
		total.UpgradesSkipped += st.UpgradesSkipped
	}
	return total
}

func (p *Protocol) String() string {
	return fmt.Sprintf("rwrnlp.Protocol(q=%d, shards=%d, placeholders=%v)",
		p.spec.NumResources(), len(p.shards), p.cfg.placeholders)
}

// QueueState re-exports the per-resource queue snapshot type.
type QueueState = core.QueueState

// Snapshot returns the current queue and holder state of every resource —
// a consistent point-in-time view for debugging and instrumentation: all
// shard locks are held (in ascending order, like the slow path) while the
// queues are read. Request IDs match those inside Tokens, which are not
// exposed; correlate via a tracer if needed. Fast-path holders (reader or
// writer plane) do not appear (they hold no RSM state); use
// WithFastPath(FastPathConfig{}) when snapshots must show every holder.
func (p *Protocol) Snapshot() []QueueState {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	q := p.spec.NumResources()
	out := make([]QueueState, q)
	for a := 0; a < q; a++ {
		out[a] = p.shardOf(ResourceID(a)).rsm.Queues(ResourceID(a))
	}
	for _, s := range p.shards {
		s.unlock()
	}
	return out
}
