package harness

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/service"
)

// The ladder prices one acquire→release pair at every layer boundary, from
// one goroutine, on one seeded stream of 2-resource requests. Every rung
// from rwrnlp.slow upwards runs the same lock configuration (placeholders,
// fast paths off), so each rung contains the one below and the differences
// are self times:
//
//	core  ⊂  rwrnlp.slow  ⊂  service  ⊂  wire.handler  ⊂  client
//
// In-process rungs cost a microsecond or less, where a clock read per call
// would be a tenth of the result; they are timed in chunks, interleaved
// round-robin so that drift hits every rung alike, and report the median
// chunk. The loopback rungs record a span per call.

// Ladder is the per-layer result: metric name → value, plus the spans.
type Ladder struct {
	Metrics map[string]float64
	Spans   []Span
}

const (
	ladderChunks = 20
	// ladderServerTrack is the span track of the in-process server side;
	// the ladder's own goroutine is track 0.
	ladderServerTrack = 1
)

// ladderStream keeps the last component free: the core.queued8 rung parks
// its eight incomplete requests there, out of the measured footprints' way.
var ladderStream = StreamSpec{Clients: 1, Components: components(4, 4)[:3], MinFoot: 2, MaxFoot: 2, WritePct: 50, Len: 1 << 12}

func ladderSpec() (*rwrnlp.Spec, error) {
	return specOf(StreamSpec{Components: components(4, 4)})
}

func slowOptions(extra ...rwrnlp.Option) []rwrnlp.Option {
	return append([]rwrnlp.Option{rwrnlp.WithPlaceholders(), rwrnlp.WithFastPath(rwrnlp.FastPathConfig{})}, extra...)
}

// rung is one in-process step of the ladder: pair(i) runs the i-th pair.
type rung struct {
	name   string
	pair   func(op *Op) error
	chunks []float64 // ns per pair, one entry per chunk
	allocs uint64
	ops    int
}

// runRungs times every rung for n pairs, a chunk of each in turn.
func runRungs(rungs []*rung, ops []Op, n int, buf *SpanBuf) error {
	per := max(n/ladderChunks, 1)
	var ms runtime.MemStats
	at := 0
	for c := 0; c < ladderChunks; c++ {
		for _, r := range rungs {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := buf.Now()
			for i := 0; i < per; i++ {
				if err := r.pair(&ops[(at+i)%len(ops)]); err != nil {
					return fmt.Errorf("ladder rung %s: %w", r.name, err)
				}
			}
			end := buf.Now()
			runtime.ReadMemStats(&ms)
			r.allocs += ms.Mallocs - before
			r.ops += per
			r.chunks = append(r.chunks, float64(end-start)/float64(per))
			buf.Add(buf.NewID(), 0, fmt.Sprintf("%s x%d", r.name, per), start, end)
		}
		at += per
	}
	return nil
}

func ids2(op *Op) [2]rwrnlp.ResourceID {
	return [2]rwrnlp.ResourceID{rwrnlp.ResourceID(op.Res[0]), rwrnlp.ResourceID(op.Res[1])}
}

// RunLadder measures every layer. n is the pair count of an in-process
// rung; the loopback rungs run n/10.
func RunLadder(seed int64, n int) (*Ladder, error) {
	ctx := context.Background()
	ops := Generate(seed, ladderStream)[0]
	spec, err := ladderSpec()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	buf := NewSpanBuf(0, epoch, 1<<12+4*n/10)
	out := &Ladder{Metrics: map[string]float64{}}
	var rungs []*rung
	add := func(name string, pair func(op *Op) error) {
		rungs = append(rungs, &rung{name: name, pair: pair})
	}

	// core: the RSM alone.
	corePair := func(m *core.RSM, write bool, t core.Time) func(*Op) error {
		return func(op *Op) error {
			ids := ids2(op)
			read, wr := ids[:], []core.ResourceID(nil)
			if write {
				read, wr = nil, ids[:]
			}
			t++
			id, err := m.Issue(t, read, wr, nil)
			if err != nil {
				return err
			}
			t++
			return m.Complete(t, id)
		}
	}
	rsmOpt := core.Options{Placeholders: true}
	add("core.read_pair", corePair(core.NewRSM(spec, rsmOpt), false, 0))
	add("core.write_pair", corePair(core.NewRSM(spec, rsmOpt), true, 0))
	busy := core.NewRSM(spec, rsmOpt)
	for k := 0; k < 8; k++ {
		// Four writers hold resources 12..15 and four more queue behind
		// them: eight incomplete requests for every stabilise pass to scan.
		if _, err := busy.Issue(core.Time(k+1), nil, []core.ResourceID{core.ResourceID(12 + k%4)}, nil); err != nil {
			return nil, err
		}
	}
	add("core.queued8_pair", corePair(busy, true, 8))

	// rwrnlp: the three entry points over the sharded runtime lock.
	lockPair := func(p *rwrnlp.Protocol, write bool) func(*Op) error {
		return func(op *Op) error {
			ids := ids2(op)
			var tok rwrnlp.Token
			var err error
			if write {
				tok, err = p.Write(ctx, ids[:]...)
			} else {
				tok, err = p.Read(ctx, ids[:]...)
			}
			if err != nil {
				return err
			}
			return p.Release(tok)
		}
	}
	var locks []*rwrnlp.Protocol
	newLock := func(opts ...rwrnlp.Option) *rwrnlp.Protocol {
		p := rwrnlp.New(spec, opts...)
		locks = append(locks, p)
		return p
	}
	defer func() {
		for _, p := range locks {
			_ = p.Close()
		}
	}()
	fast := newLock(rwrnlp.WithPlaceholders())
	add("rwrnlp.fast_read_pair", lockPair(fast, false))
	add("rwrnlp.fast_write_pair", lockPair(fast, true))
	slow := newLock(slowOptions()...)
	add("rwrnlp.slow_read_pair", lockPair(slow, false))
	add("rwrnlp.slow_write_pair", lockPair(slow, true))

	// Guard rungs: no workload mix uses these forms, so only the ladder
	// notices when a refactor of the request lifecycle makes them dearer.
	guard := newLock(rwrnlp.WithPlaceholders())
	add("rwrnlp.upgradeable_pair", func(op *Op) error {
		ids := ids2(op)
		u, err := guard.AcquireUpgradeable(ctx, ids[:]...)
		if err != nil {
			return err
		}
		if u.Reading() {
			if err := u.Upgrade(ctx); err != nil {
				return err
			}
		}
		return u.Release()
	})
	add("rwrnlp.incremental_pair", func(op *Op) error {
		ids := ids2(op)
		inc, err := guard.AcquireIncremental(ctx, nil, ids[:], nil, ids[:1])
		if err != nil {
			return err
		}
		if err := inc.Acquire(ctx, ids[1]); err != nil {
			return err
		}
		return inc.Release()
	})
	add("rwrnlp.cross_component_pair", func(op *Op) error {
		// Undeclared: the same resource in this component and the next.
		a := op.Res[0]
		tok, err := guard.Acquire(ctx, nil, []rwrnlp.ResourceID{rwrnlp.ResourceID(a), rwrnlp.ResourceID((a + 4) % 12)})
		if err != nil {
			return err
		}
		return guard.Release(tok)
	})

	// obs: the slow write pair again with one option on at a time.
	// WithTimeSeries implies WithMetrics, so its price is taken over the
	// metrics rung, not over the bare one.
	add("obs.metrics", lockPair(newLock(slowOptions(rwrnlp.WithMetrics())...), true))
	add("obs.flight", lockPair(newLock(slowOptions(rwrnlp.WithFlightRecorder(4096))...), true))
	add("obs.attr", lockPair(newLock(slowOptions(rwrnlp.WithAttribution(10))...), true))
	add("obs.timeseries", lockPair(newLock(slowOptions(rwrnlp.WithTimeSeries(time.Second, 0))...), true))
	add("obs.all_on", lockPair(newLock(append(observedOptions(), rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}))...), true))

	// service: the session/lease/fence plane by direct method calls.
	newServer := func() (*service.Server, error) {
		return service.NewServer(service.Config{Spec: spec, Options: slowOptions(), LeaseTTL: time.Minute})
	}
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	info, err := srv.OpenSession(time.Minute)
	if err != nil {
		return nil, err
	}
	add("service.pair", func(op *Op) error {
		g, err := srv.Acquire(ctx, info.ID, nil, op.Footprint())
		if err != nil {
			return err
		}
		return srv.Release(info.ID, g.Handle)
	})

	if err := runRungs(rungs, ops, n, buf); err != nil {
		return nil, err
	}
	ns, allocs := map[string]float64{}, map[string]float64{}
	for _, r := range rungs {
		ns[r.name] = Median(r.chunks)
		allocs[r.name] = float64(r.allocs) / float64(r.ops)
	}
	m := out.Metrics
	for _, name := range []string{"core.read_pair", "core.write_pair", "core.queued8_pair"} {
		m[name+"_ns"], m[name+"_allocs"] = ns[name], allocs[name]
	}
	for _, name := range []string{"rwrnlp.fast_read_pair", "rwrnlp.fast_write_pair", "rwrnlp.slow_read_pair", "rwrnlp.slow_write_pair"} {
		m[name+"_ns"] = ns[name]
	}
	m["rwrnlp.fast_pair_allocs"] = (allocs["rwrnlp.fast_read_pair"] + allocs["rwrnlp.fast_write_pair"]) / 2
	m["rwrnlp.slow_pair_allocs"] = (allocs["rwrnlp.slow_read_pair"] + allocs["rwrnlp.slow_write_pair"]) / 2
	m["rwrnlp.self_slow_ns"] = ns["rwrnlp.slow_write_pair"] - ns["core.write_pair"]
	for _, name := range []string{"rwrnlp.upgradeable_pair", "rwrnlp.incremental_pair", "rwrnlp.cross_component_pair"} {
		m[name+"_ns"], m[name+"_allocs"] = ns[name], allocs[name]
	}
	base := ns["rwrnlp.slow_write_pair"]
	m["obs.metrics_overhead_ns"] = ns["obs.metrics"] - base
	m["obs.flight_overhead_ns"] = ns["obs.flight"] - base
	m["obs.attr_overhead_ns"] = ns["obs.attr"] - base
	m["obs.timeseries_overhead_ns"] = ns["obs.timeseries"] - ns["obs.metrics"]
	m["obs.all_on_overhead_ns"] = ns["obs.all_on"] - base
	m["obs.all_on_overhead_allocs"] = allocs["obs.all_on"] - allocs["rwrnlp.slow_write_pair"]
	m["service.pair_ns"], m["service.pair_allocs"] = ns["service.pair"], allocs["service.pair"]
	m["service.self_ns"] = ns["service.pair"] - base

	if err := serviceControlPlane(srv, newServer, info.ID, n, m); err != nil {
		return nil, err
	}
	if err := handoff(spec, n/4, m); err != nil {
		return nil, err
	}
	serverSpans, err := loopback(srv, ops, n/10, buf, m)
	if err != nil {
		return nil, err
	}
	m["wire.handler_self_ns"] = m["wire.handler_pair_ns"] - m["service.pair_ns"]
	out.Spans = append(buf.Spans(), serverSpans...)
	return out, nil
}

// serviceControlPlane prices the service calls that are not on the
// acquire/release path.
func serviceControlPlane(srv *service.Server, newServer func() (*service.Server, error), sess string, n int, m map[string]float64) error {
	per := func(count int, f func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < count; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(count), nil
	}
	var err error
	if m["service.heartbeat_ns"], err = per(n, func() error { _, err := srv.Heartbeat(sess); return err }); err != nil {
		return err
	}
	g, err := srv.Acquire(context.Background(), sess, nil, []client.ResourceID{0})
	if err != nil {
		return err
	}
	tok := g.Fencing[0]
	if m["service.fence_ns"], err = per(n, func() error { return srv.Fence(tok.Component, tok.Token) }); err != nil {
		return err
	}
	if err := srv.Release(sess, g.Handle); err != nil {
		return err
	}
	// Sessions and servers are opened on a server of their own, so the
	// measured one keeps a single session.
	side, err := newServer()
	if err != nil {
		return err
	}
	if m["service.open_session_ns"], err = per(max(n/100, 10), func() error { _, err := side.OpenSession(time.Minute); return err }); err != nil {
		return err
	}
	_ = side.Close()
	starts := make([]float64, 21)
	for i := range starts {
		t := time.Now()
		s, err := newServer()
		if err != nil {
			return err
		}
		starts[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		_ = s.Close()
	}
	m["service.start_ms"] = Median(starts)
	return nil
}

// handoff has two goroutines pass one write lock back and forth: the time
// from the holder's Release call to the waiter's Write return is what a
// queued request pays per predecessor. The holder releases only once the
// peer has announced its Write and had time to block in it.
func handoff(spec *rwrnlp.Spec, n int, m map[string]float64) error {
	ctx := context.Background()
	p := rwrnlp.New(spec, rwrnlp.WithPlaceholders())
	defer p.Close()
	// Every Write is announced before the call and counted once granted, so
	// announced > granted means the side that is not holding is inside Write.
	var announced, granted atomic.Int64
	var done [2]atomic.Bool
	var released atomic.Int64 // time of the last Release call, since epoch
	epoch := time.Now()
	var hists [2]Hist
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for side := 0; side < 2; side++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done[side].Store(true)
			for i := 0; i < n; i++ {
				announced.Add(1)
				tok, err := p.Write(ctx, 0)
				at := int64(time.Since(epoch))
				if err != nil {
					errs <- err
					return
				}
				mine := granted.Add(1)
				if rel := released.Load(); rel != 0 {
					hists[side].Record(at - rel)
				}
				// Hold until the peer is in its next Write (or has done
				// its last), then a little longer so that it is parked.
				for announced.Load() <= mine && !done[1-side].Load() {
					runtime.Gosched()
				}
				for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
				}
				released.Store(int64(time.Since(epoch)))
				if err := p.Release(tok); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("handoff: %w", err)
	default:
	}
	hists[0].Merge(&hists[1])
	m["rwrnlp.handoff_p50_ns"] = hists[0].Quantile(0.50)
	m["rwrnlp.handoff_p99_ns"] = hists[0].Quantile(0.99)
	return nil
}

// lockedSpans is the server side's span buffer: handler goroutines differ
// per connection, so this one takes a mutex.
type lockedSpans struct {
	mu  sync.Mutex
	buf *SpanBuf
}

// countingConn counts the bytes that really cross the loopback socket,
// headers included.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingTransport struct {
	rt    http.RoundTripper
	trips atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.rt.RoundTrip(r)
}

// loopback runs the two top rungs together: Session.Write+Release over one
// loopback connection into srv.Handler() behind a span-recording
// middleware. Each handler span falls inside the client call that caused
// it, so nesting by containment rebuilds the tree, and per pair
//
//	client pair = handler spans + the client/transport self time.
func loopback(srv *service.Server, ops []Op, n int, buf *SpanBuf, m map[string]float64) ([]Span, error) {
	ctx := context.Background()
	server := &lockedSpans{buf: NewSpanBuf(ladderServerTrack, buf.epoch, 2*n+64)}
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := server.buf.Now()
		inner.ServeHTTP(w, r)
		end := server.buf.Now()
		if r.URL.Path == "/v1/acquire" || r.URL.Path == "/v1/release" {
			server.mu.Lock()
			server.buf.Add(server.buf.NewID(), 0, "wire.handler "+r.URL.Path, start, end)
			server.mu.Unlock()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wireBytes atomic.Int64
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(countingListener{ln, &wireBytes})
		close(served)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer func() {
		tr.CloseIdleConnections()
		_ = hs.Close()
		<-served
	}()
	rt := &countingTransport{rt: tr}
	c, err := client.New(ctx, []string{"http://" + ln.Addr().String()}, client.WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		return nil, err
	}
	// No keepalive goroutine: the round-trip and byte counts below must be
	// the pairs' alone.
	sess, err := c.OpenSession(ctx, client.WithoutKeepAlive())
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	pair := func(op *Op, record bool) error {
		t0 := buf.Now()
		g, err := sess.Write(ctx, op.Footprint()...)
		t1 := buf.Now()
		if err != nil {
			return err
		}
		err = sess.Release(g)
		if record {
			t2 := buf.Now()
			root := buf.NewID()
			buf.Add(buf.NewID(), root, "client.acquire", t0, t1)
			buf.Add(buf.NewID(), root, "client.release", t1, t2)
			buf.Add(root, 0, "client.pair", t0, t2)
		}
		return err
	}
	for i := 0; i < max(n/10, 10); i++ { // connection set-up and first-use costs
		if err := pair(&ops[i%len(ops)], false); err != nil {
			return nil, fmt.Errorf("ladder client warm-up: %w", err)
		}
	}
	server.mu.Lock()
	server.buf.spans = server.buf.spans[:0]
	server.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes0, trips0 := ms.Mallocs, wireBytes.Load(), rt.trips.Load()
	first := len(buf.Spans())
	for i := 0; i < n; i++ {
		if err := pair(&ops[i%len(ops)], true); err != nil {
			return nil, fmt.Errorf("ladder client rung: %w", err)
		}
	}
	runtime.ReadMemStats(&ms)
	m["client.pair_allocs"] = float64(ms.Mallocs-mallocs) / float64(n)
	m["wire.bytes_per_pair"] = float64(wireBytes.Load()-bytes0) / float64(n)
	m["wire.roundtrips_per_pair"] = float64(rt.trips.Load()-trips0) / float64(n)

	// Rebuild the tree and read the rungs off it.
	server.mu.Lock()
	serverSpans := append([]Span(nil), server.buf.Spans()...)
	server.mu.Unlock()
	tree := append(append([]Span(nil), buf.Spans()[first:]...), serverSpans...)
	NestByContainment(tree)
	self := SelfTimes(tree)
	rootOf := map[int64]int64{} // client.acquire/release span → its pair
	pairDur := map[int64]int64{}
	for _, s := range tree {
		switch {
		case s.Name == "client.pair":
			pairDur[s.ID] = s.End - s.Start
		case s.Track == 0:
			rootOf[s.ID] = s.Parent
		}
	}
	handlerSum, transportSelf := map[int64]int64{}, map[int64]int64{}
	for _, s := range tree {
		if s.Track == ladderServerTrack {
			handlerSum[rootOf[s.Parent]] += s.End - s.Start
		} else if s.Name != "client.pair" {
			transportSelf[s.Parent] += self[s.ID]
		}
	}
	var pairs, handlers, transports []float64
	for id, d := range pairDur {
		pairs = append(pairs, float64(d))
		handlers = append(handlers, float64(handlerSum[id]))
		transports = append(transports, float64(transportSelf[id]))
	}
	m["client.pair_ns"] = Median(pairs)
	m["wire.handler_pair_ns"] = Median(handlers)
	m["client.transport_self_ns"] = Median(transports)

	snap := c.MetricsSnapshot()
	m["client.acquire_p50_us"] = float64(snap.Hists[client.MClientAcquireNS].P50) / 1e3
	m["client.release_p50_us"] = float64(snap.Hists[client.MClientReleaseNS].P50) / 1e3
	beats := max(n/10, 10)
	start := time.Now()
	for i := 0; i < beats; i++ {
		if err := sess.Heartbeat(ctx); err != nil {
			return nil, err
		}
	}
	m["client.heartbeat_ns"] = float64(time.Since(start).Nanoseconds()) / float64(beats)

	// The copy handed back carries the parents found above.
	return tree[len(tree)-len(serverSpans):], nil
}
