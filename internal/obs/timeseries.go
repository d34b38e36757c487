package obs

import (
	"sync"
	"time"
)

// DefaultTimeSeriesCapacity bounds the sample ring when no capacity is given:
// at the default 1s interval it retains five minutes of history.
const DefaultTimeSeriesCapacity = 300

// TimeSeries is a bounded in-memory ring of metrics snapshots captured at a
// fixed interval, turning the registry's cumulative instruments into
// queryable history: rates, windowed tail quantiles, and bound utilization
// (observed wait ÷ Theorem 1/2 envelope) over "the last N seconds".
//
// Capture cost is one registry snapshot (off every hot path); memory is
// bounded by capacity × snapshot size. Start launches the capture goroutine;
// Capture may also be called directly for deterministic tests or
// scrape-driven freshness. Query is safe concurrently with capture.
type TimeSeries struct {
	m        *Metrics
	interval time.Duration

	mu       sync.Mutex
	samples  []Snapshot // ring, oldest first, len ≤ capacity
	capacity int
	maxInfl  int64    // max sampled protocol_inflight (dynamic m)
	env      Envelope // configured part of the bound-utilisation envelope

	stop    chan struct{}
	started bool
	wg      sync.WaitGroup
}

// NewTimeSeries creates a time series over m. interval <= 0 defaults to one
// second; capacity <= 0 defaults to DefaultTimeSeriesCapacity samples.
func NewTimeSeries(m *Metrics, interval time.Duration, capacity int) *TimeSeries {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = DefaultTimeSeriesCapacity
	}
	return &TimeSeries{m: m, interval: interval, capacity: capacity}
}

// Interval returns the configured capture interval.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

// SetAnalytic switches bound utilization to a fixed a-priori envelope with
// per-kind worst-case CS lengths lr, lw and processor count m (see
// BoundMonitor and Watchdog.SetAnalytic). m <= 0 keeps dynamic m.
func (ts *TimeSeries) SetAnalytic(lr, lw int64, m int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.env = Envelope{M: m, Analytic: true, Lr: lr, Lw: lw}
}

// Start launches the periodic capture goroutine. It is a no-op if already
// started. Stop it with Stop; an unstopped TimeSeries keeps a goroutine and
// its registry reference alive.
func (ts *TimeSeries) Start() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.started {
		return
	}
	ts.started = true
	ts.stop = make(chan struct{})
	ts.wg.Add(1)
	go func() {
		defer ts.wg.Done()
		t := time.NewTicker(ts.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ts.Capture()
			case <-ts.stop:
				return
			}
		}
	}()
}

// Stop terminates the capture goroutine and waits for it. Retained samples
// stay queryable. Safe to call multiple times or without Start.
func (ts *TimeSeries) Stop() {
	ts.mu.Lock()
	if !ts.started {
		ts.mu.Unlock()
		return
	}
	ts.started = false
	close(ts.stop)
	ts.mu.Unlock()
	ts.wg.Wait()
}

// Capture snapshots the registry into the ring now, evicting the oldest
// sample at capacity.
func (ts *TimeSeries) Capture() {
	s := ts.m.Snapshot()
	s.Created = nil // identical in every sample; keep the ring lean
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if infl := s.Gauges[MInflight]; infl > ts.maxInfl {
		ts.maxInfl = infl
	}
	if len(ts.samples) == ts.capacity {
		copy(ts.samples, ts.samples[1:])
		ts.samples[len(ts.samples)-1] = s
		return
	}
	ts.samples = append(ts.samples, s)
}

// ensureFresh captures a sample if the newest one is older than half the
// interval (or the ring is empty), so a scrape-driven query never reads a
// stale ring even when Start was never called.
func (ts *TimeSeries) ensureFresh() {
	ts.mu.Lock()
	n := len(ts.samples)
	var last int64
	if n > 0 {
		last = ts.samples[n-1].TakenNS
	}
	ts.mu.Unlock()
	if n == 0 || time.Duration(time.Now().UnixNano()-last) > ts.interval/2 {
		ts.Capture()
	}
}

// Refresh captures a sample iff the newest one is stale (older than half the
// interval) — the in-process equivalent of a scrape-driven query. Use before
// Query when Start was never called.
func (ts *TimeSeries) Refresh() { ts.ensureFresh() }

// WindowStats summarizes one histogram's movement inside a query window,
// derived from cumulative bucket deltas between the window's edge samples.
// Quantiles carry the histogram's ≤ HistMaxRelError one-sided error.
type WindowStats struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"` // observations per second
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"` // upper bound of the highest moved bucket
}

// BoundUtilization relates windowed tail waits to the paper's blocking
// bounds: a reader's acquisition delay is bounded by Lr+Lw (Theorem 1), a
// writer's by (m−1)(Lr+Lw) (Theorem 2). Utilization is the windowed p999
// acquisition delay divided by that envelope — persistently near (or past)
// 1.0 means the deployment is consuming its analytical slack. Units are the
// producing plane's (ticks for the runtime lock, simulated ns in the sim).
type BoundUtilization struct {
	Analytic   bool    `json:"analytic"` // false: Lr/Lw are observed CS maxima
	Lr         int64   `json:"lr"`
	Lw         int64   `json:"lw"`
	M          int     `json:"m"`
	ReadBound  int64   `json:"read_bound"`  // Lr+Lw
	WriteBound int64   `json:"write_bound"` // (m−1)(Lr+Lw)
	ReadP999   int64   `json:"read_p999"`   // windowed acq_delay_read p999
	WriteP999  int64   `json:"write_p999"`  // windowed acq_delay_write p999
	ReadUtil   float64 `json:"read_util"`
	WriteUtil  float64 `json:"write_util"`
}

// TimeSeriesReport is the answer to "what happened over the last N seconds".
type TimeSeriesReport struct {
	NowNS      int64 `json:"now_ns"`
	WindowNS   int64 `json:"window_ns"` // actual span between edge samples
	IntervalNS int64 `json:"interval_ns"`
	Samples    int   `json:"samples"` // samples inside the window
	// Rates maps every counter (shard-labeled names included) to its
	// per-second rate over the window.
	Rates  map[string]float64 `json:"rates"`
	Gauges map[string]int64   `json:"gauges"` // latest values
	// Hists maps every histogram that moved in the window to its windowed
	// delta stats; quiescent histograms are omitted.
	Hists map[string]WindowStats `json:"hists"`
	Bound BoundUtilization       `json:"bound"`
}

// deltaHist reconstructs a HistStats for the samples recorded between old and
// cur from their cumulative bucket counts. Min/Max degrade to the moved
// buckets' bounds (the exact extrema are only tracked cumulatively).
func deltaHist(cur, old HistStats) HistStats {
	prev := make(map[int64]int64, len(old.Buckets))
	for _, b := range old.Buckets {
		prev[b.Le] = b.N
	}
	var d HistStats
	for _, b := range cur.Buckets {
		n := b.N - prev[b.Le]
		if n <= 0 {
			continue
		}
		d.Count += n
		d.Buckets = append(d.Buckets, Bucket{Le: b.Le, N: n})
	}
	if d.Count == 0 {
		return d
	}
	lo, _ := bucketBounds(bucketIndex(d.Buckets[0].Le))
	d.Min = lo
	d.Max = d.Buckets[len(d.Buckets)-1].Le
	return d
}

// Query summarizes the window ending at the newest sample. The window's far
// edge is the newest sample at least `window` older than the head (falling
// back to the oldest retained sample); a ring with fewer than two samples
// yields zero rates. Call Capture (or serve via TimeSeriesHandler, which
// refreshes automatically) before querying if Start was never called.
func (ts *TimeSeries) Query(window time.Duration) TimeSeriesReport {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rep := TimeSeriesReport{
		IntervalNS: int64(ts.interval),
		Rates:      map[string]float64{},
		Gauges:     map[string]int64{},
		Hists:      map[string]WindowStats{},
	}
	n := len(ts.samples)
	if n == 0 {
		return rep
	}
	head := ts.samples[n-1]
	rep.NowNS = head.TakenNS
	for g, v := range head.Gauges {
		rep.Gauges[g] = v
	}
	base := ts.samples[0]
	rep.Samples = n
	for i := n - 2; i >= 0; i-- {
		if head.TakenNS-ts.samples[i].TakenNS >= int64(window) {
			base = ts.samples[i]
			rep.Samples = n - i
			break
		}
	}
	rep.WindowNS = head.TakenNS - base.TakenNS
	secs := float64(rep.WindowNS) / 1e9
	for c, v := range head.Counters {
		if secs > 0 {
			rep.Rates[c] = float64(v-base.Counters[c]) / secs
		} else {
			rep.Rates[c] = 0
		}
	}
	for name, cur := range head.Hists {
		d := deltaHist(cur, base.Hists[name])
		if d.Count == 0 {
			continue
		}
		ws := WindowStats{
			Count: d.Count,
			P50:   d.Quantile(0.50),
			P90:   d.Quantile(0.90),
			P99:   d.Quantile(0.99),
			P999:  d.Quantile(0.999),
			Max:   d.Max,
		}
		if secs > 0 {
			ws.Rate = float64(d.Count) / secs
		}
		rep.Hists[name] = ws
	}
	rep.Bound = ts.boundLocked(head, rep.Hists)
	return rep
}

// boundLocked computes bound utilization from the head sample and the
// windowed histogram stats. The time series sees the stream only through the
// registry, so the observed parts of its envelope are what the registry
// holds: the CS-length histograms' maxima and the largest in-flight gauge
// value any sample caught. Caller holds ts.mu.
func (ts *TimeSeries) boundLocked(head Snapshot, hists map[string]WindowStats) BoundUtilization {
	env := ts.env.over(head.Hists[MCSLengthRead].Max, head.Hists[MCSLengthWrite].Max, int(ts.maxInfl)).alarm()
	b := BoundUtilization{
		Analytic:   env.Analytic,
		Lr:         env.Lr,
		Lw:         env.Lw,
		M:          env.M,
		ReadBound:  env.ReadBound(),
		WriteBound: env.WriteBound(),
		ReadP999:   hists[MAcqDelayRead].P999,
		WriteP999:  hists[MAcqDelayWrite].P999,
	}
	if b.ReadBound > 0 {
		b.ReadUtil = float64(b.ReadP999) / float64(b.ReadBound)
	}
	if b.WriteBound > 0 {
		b.WriteUtil = float64(b.WriteP999) / float64(b.WriteBound)
	}
	return b
}

// Samples returns a copy of the retained ring, oldest first.
func (ts *TimeSeries) Samples() []Snapshot {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]Snapshot(nil), ts.samples...)
}
