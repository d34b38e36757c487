package rwrnlp

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// lockedObserver serializes event delivery from several shards into one
// observer. Shard events are emitted under per-shard mutexes, so a shared
// TraceBuilder needs external locking under -race.
type lockedObserver struct {
	mu sync.Mutex
	o  core.Observer
}

func (l *lockedObserver) Observe(e core.Event) {
	l.mu.Lock()
	l.o.Observe(e)
	l.mu.Unlock()
}

// Observability regression for the sharded lock with the reader fast path
// enabled (the PR 3 strided request IDs + PR 4 BRAVO fast path combination):
// after a mixed concurrent workload the per-shard and aggregate metrics must
// be mutually consistent, the flight records must respect the shard/ID
// striding, and the Perfetto trace must contain no orphaned slices and no
// double-counted critical sections.
func TestShardedFastPathObservabilityConsistency(t *testing.T) {
	b := NewSpecBuilder(4)
	for _, g := range [][]ResourceID{{0, 1}, {2, 3}} {
		if err := b.DeclareRequest(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := New(b.Build(), WithMetrics(), WithFlightRecorder(4096), WithAttribution(8))
	n := p.NumShards()
	if n != 2 {
		t.Fatalf("NumShards = %d, want 2 (two components)", n)
	}

	tb := obs.NewTraceBuilder()
	tb.MaxRequestTracks = 1 << 16
	p.SetTracer(&lockedObserver{o: tb})

	const iters = 30
	var wg sync.WaitGroup
	work := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	acquireRelease := func(read, write []ResourceID) {
		tok, err := p.Acquire(bg, read, write)
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Release(tok); err != nil {
			t.Error(err)
		}
	}
	work(func(i int) { acquireRelease(nil, []ResourceID{0}) })
	work(func(i int) {
		if i%3 == 0 {
			acquireRelease([]ResourceID{1, 3}, nil) // cross-component slow path
		} else {
			acquireRelease([]ResourceID{1}, nil)
		}
	})
	work(func(i int) { acquireRelease(nil, []ResourceID{2}) })
	work(func(i int) { acquireRelease([]ResourceID{3}, nil) })
	wg.Wait()

	s := p.Metrics().Snapshot()
	count := func(name string) int64 { return s.Counters[name] }

	// Aggregate protocol series: every shard's pipeline records into the
	// shared registry, so issued/satisfied/completed
	// must balance across the whole protocol.
	issued, satisfied, completed := count(obs.MIssued), count(obs.MSatisfied), count(obs.MCompleted)
	if issued == 0 {
		t.Fatal("no RSM traffic — the workload ran entirely on the fast path, nothing to check")
	}
	if satisfied != issued || completed != issued {
		t.Errorf("protocol series unbalanced: issued=%d satisfied=%d completed=%d", issued, satisfied, completed)
	}
	for _, g := range []string{obs.MInflight, obs.MHolders} {
		if v := s.Gauges[g]; v != 0 {
			t.Errorf("gauge %s = %d after quiescence, want 0", g, v)
		}
	}
	// Every satisfied request contributes exactly one acquisition-delay
	// observation (read or write; no incremental requests here).
	delays := s.Hists[obs.MAcqDelayRead].Count + s.Hists[obs.MAcqDelayWrite].Count
	if delays != satisfied {
		t.Errorf("delay observations = %d, want %d (one per satisfaction)", delays, satisfied)
	}

	// Per-shard series: acquires/releases balance shard by shard, and the
	// shard totals reconcile with the aggregate completions.
	var shardAcquires int64
	for i := 0; i < n; i++ {
		acq := count(obs.ShardMetric(obs.MShardAcquires, i))
		rel := count(obs.ShardMetric(obs.MShardReleases, i))
		if acq != rel {
			t.Errorf("shard %d: acquires=%d releases=%d", i, acq, rel)
		}
		shardAcquires += acq
		hits := count(obs.ShardMetric(obs.MFastPathHit, i))
		if hits == 0 {
			t.Logf("shard %d: no fast-path hits (contention-dependent, not a failure)", i)
		}
	}
	// A fast-path claim a conflicting request migrated completes through the
	// RSM as a surrogate without ever passing shard.acquire; the flight rings
	// (deep enough to retain the whole run) name those completions by tag.
	var surrogates int64
	for _, r := range p.FlightRecorder().Dump().Records {
		if r.Type == core.EvCompleted.String() && (r.Tag == fastSurrogateTag || r.Tag == fastWriterSurrogateTag) {
			surrogates++
		}
	}
	if shardAcquires+surrogates != completed {
		t.Errorf("shard acquires %d + migrated surrogates %d != completed %d", shardAcquires, surrogates, completed)
	}

	// Attribution saw exactly the non-incremental satisfactions.
	rep := p.Attribution()
	if rep.Checked != satisfied {
		t.Errorf("attribution checked %d requests, want %d", rep.Checked, satisfied)
	}

	// Flight records must respect the strided-ID scheme: shard i only ever
	// issues IDs ≡ i (mod numShards), so a record's request ID pins its
	// shard. A violation here means an observer is mixing shard streams.
	dump := p.FlightRecorder().Dump()
	if len(dump.Records) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	for _, r := range dump.Records {
		if r.Req <= 0 {
			continue // placeholder-removal bookkeeping uses synthetic IDs
		}
		if int(r.Req%int64(n)) != r.Shard {
			t.Fatalf("flight record req %d on shard %d violates ID striding (mod %d)", r.Req, r.Shard, n)
		}
	}

	// Perfetto: every wait and CS slice must be closed (no "(open)"), and
	// each request must contribute exactly one CS slice — a duplicate would
	// mean a double-counted critical section.
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if tb.DroppedRequests() != 0 {
		t.Fatalf("trace dropped %d request tracks; raise MaxRequestTracks", tb.DroppedRequests())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int64  `json:"tid"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	csByReq := map[int64]int{}
	csTotal := int64(0)
	for _, e := range doc.TraceEvents {
		if bytes.Contains([]byte(e.Name), []byte("(open)")) {
			t.Errorf("orphaned slice %q (tid %d) in trace of a quiescent protocol", e.Name, e.Tid)
		}
		if e.Name == "cs" && e.Ph == "X" {
			csByReq[e.Tid]++
			csTotal++
		}
	}
	for req, c := range csByReq {
		if c != 1 {
			t.Errorf("request %d has %d CS slices, want 1 (double-counted critical section)", req, c)
		}
	}
	if csTotal != completed {
		t.Errorf("trace has %d CS slices, metrics report %d completions", csTotal, completed)
	}
}

// The debug endpoints must be safe to scrape while the lock is under load:
// metrics snapshots, Prometheus exposition, flight dumps, and watchdog
// reports all read state that the acquisition path is mutating. Run with
// -race; any torn read surfaces here.
func TestDebugEndpointsConcurrentWithWorkload(t *testing.T) {
	b := NewSpecBuilder(4)
	for _, g := range [][]ResourceID{{0, 1}, {2, 3}} {
		if err := b.DeclareRequest(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := New(b.Build(), WithMetrics(), WithFlightRecorder(256), WithAttribution(4),
		WithStallWatchdog(WatchdogConfig{Slack: 1e9}))
	mux := p.DebugMux()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := ResourceID(g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var tok Token
				var err error
				if i%4 == 0 {
					tok, err = p.Write(bg, res)
				} else {
					tok, err = p.Read(bg, res)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := p.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	paths := []string{
		"/metrics", "/metrics?format=openmetrics", "/debug/rnlp/flight",
		"/debug/rnlp/flight?format=perfetto", "/debug/rnlp/watchdog",
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range paths {
					rr := httptest.NewRecorder()
					mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
					if rr.Code != 200 {
						t.Errorf("%s under load: status %d", path, rr.Code)
						return
					}
				}
			}
		}()
		// Interleave direct accessor reads with the HTTP scrapes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = p.Attribution()
				_ = p.FlightRecorder().Dump()
				_ = p.WatchdogFirings()
				_ = p.StallReports()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := p.WatchdogFirings(); n != 0 {
		t.Errorf("watchdog fired %d times under an uncontended workload with huge slack", n)
	}
}

// Fast-path hits must stay invisible to the whole observability plane, not
// just the RSM: no flight records, no attribution samples, no protocol
// series movement — only the shard-labeled fastpath_hit counter.
func TestFastPathHitInvisibleToObservabilityPlane(t *testing.T) {
	b := NewSpecBuilder(2)
	if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	p := New(b.Build(), WithMetrics(), WithFlightRecorder(64), WithAttribution(4))
	tok, err := p.Read(bg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tok.fastSeq == 0 {
		t.Fatal("uncontended all-read acquisition did not take the fast path")
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if d := p.FlightRecorder().Dump(); len(d.Records) != 0 {
		t.Errorf("fast-path hit left %d flight records, want 0", len(d.Records))
	}
	rep := p.Attribution()
	if rep.Checked != 0 || rep.Immediate != 0 {
		t.Errorf("fast-path hit reached the attributor: %+v", rep)
	}
	if got := p.Metrics().Snapshot().Counters[obs.MIssued]; got != 0 {
		t.Errorf("protocol_issued = %d for a fast-path hit, want 0", got)
	}
}
