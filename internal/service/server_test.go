package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
)

// httpGet fetches a URL and returns the status code, draining the body.
func httpGet(t testing.TB, url string) (int, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// testSpec builds a spec with two declared two-resource components
// ({0,1}, {2,3}) plus singleton components for the rest.
func testSpec(t testing.TB, q int) *rwrnlp.Spec {
	t.Helper()
	b := rwrnlp.NewSpecBuilder(q)
	if err := b.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if q >= 4 {
		if err := b.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// newNode boots one in-process node over httptest and returns the server
// and its base URL.
func newNode(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	return srv, hs.URL
}

func newClient(t testing.TB, addrs ...string) *client.Client {
	t.Helper()
	c, err := client.New(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSessionLifecycle(t *testing.T) {
	_, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: 200 * time.Millisecond})
	c := newClient(t, url)
	if got := c.Spec().Resources; got != 4 {
		t.Fatalf("spec resources = %d, want 4", got)
	}

	s, err := c.OpenSession(context.Background(), client.WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeats keep the lease alive past several TTLs.
	for i := 0; i < 4; i++ {
		time.Sleep(80 * time.Millisecond)
		if err := s.Heartbeat(context.Background()); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	// Silence for 2.5 TTLs kills it.
	time.Sleep(500 * time.Millisecond)
	err = s.Heartbeat(context.Background())
	if !errors.Is(err, client.ErrLeaseExpired) && !errors.Is(err, client.ErrSessionNotFound) {
		t.Fatalf("heartbeat after silence: %v, want lease expiry", err)
	}
	if !s.Expired() {
		t.Fatal("session should report Expired")
	}
}

func TestAcquireReleaseFencingMonotonic(t *testing.T) {
	srv, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: 5 * time.Second})
	c := newClient(t, url)
	s, err := c.OpenSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var last uint64
	for i := 0; i < 5; i++ {
		g, err := s.Write(ctx, 0, 1)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		tok, ok := g.Token(0)
		if !ok {
			t.Fatalf("grant %d carries no token for resource 0", i)
		}
		if tok <= last {
			t.Fatalf("fencing token not strictly monotonic: %d after %d", tok, last)
		}
		last = tok
		// The held token passes the fence; after release it is stale.
		if err := c.Fence(ctx, c.ComponentOf(0), tok); err != nil {
			t.Fatalf("fence while held: %v", err)
		}
		if err := s.Release(g); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		if err := c.Fence(ctx, c.ComponentOf(0), tok); !errors.Is(err, client.ErrStaleToken) {
			t.Fatalf("fence after release: %v, want ErrStaleToken", err)
		}
	}

	// A footprint spanning two components carries one token per component,
	// ascending.
	g, err := s.Acquire(ctx, []client.ResourceID{0}, []client.ResourceID{2})
	if err != nil {
		t.Fatal(err)
	}
	fen := g.Fencing()
	if len(fen) != 2 || fen[0].Component >= fen[1].Component {
		t.Fatalf("fencing = %+v, want two ascending components", fen)
	}
	if err := s.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(g); !errors.Is(err, client.ErrAlreadyReleased) {
		t.Fatalf("double release: %v, want ErrAlreadyReleased", err)
	}
	_ = srv
}

// The acceptance-criteria flow: client A's grant dies with its lease; B's
// newer grant fences; A's stale token is rejected deterministically.
func TestStaleTokenRejectedAfterNewerGrant(t *testing.T) {
	_, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: 150 * time.Millisecond})
	c := newClient(t, url)
	ctx := context.Background()

	// A acquires and then "crashes" (no heartbeats).
	a, err := c.OpenSession(ctx, client.WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	ga, err := a.Write(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := ga.Token(0)

	// B blocks on the same resource; lease expiry must unblock it.
	b, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	bctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	gb, err := b.Write(bctx, 0)
	if err != nil {
		t.Fatalf("B's acquire after A crashed: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("auto-release took %v, want about one lease TTL", waited)
	}
	tb, _ := gb.Token(0)
	if tb <= ta {
		t.Fatalf("B's token %d not newer than A's %d", tb, ta)
	}
	if err := c.Fence(ctx, c.ComponentOf(0), tb); err != nil {
		t.Fatalf("fence with current token: %v", err)
	}
	if err := c.Fence(ctx, c.ComponentOf(0), ta); !errors.Is(err, client.ErrStaleToken) {
		t.Fatalf("fence with stale token: %v, want ErrStaleToken", err)
	}
	// A's own release of the dead grant reports the lease loss.
	if err := a.Release(ga); !errors.Is(err, client.ErrLeaseExpired) && !errors.Is(err, client.ErrSessionNotFound) {
		t.Fatalf("A's release after expiry: %v, want lease expiry", err)
	}
	if err := b.Release(gb); err != nil {
		t.Fatal(err)
	}
}

// A pending (blocked) acquisition is withdrawn when its session's lease
// expires, via the protocol's cancel path.
func TestPendingAcquireCanceledOnExpiry(t *testing.T) {
	_, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: 150 * time.Millisecond})
	c := newClient(t, url)
	ctx := context.Background()

	holder, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	gh, err := holder.Write(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	dead, err := c.OpenSession(ctx, client.WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	actx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_, err = dead.Write(actx, 0) // blocks behind holder, then lease expires
	if !errors.Is(err, client.ErrLeaseExpired) && !errors.Is(err, client.ErrSessionNotFound) {
		t.Fatalf("pending acquire on expired session: %v, want lease expiry", err)
	}
	if err := holder.Release(gh); err != nil {
		t.Fatal(err)
	}
}

// The monotone high-water rule: once a newer token has been presented,
// older active tokens are stale too.
func TestFenceHighWater(t *testing.T) {
	ft := newFenceTable(1)
	t1 := ft.mint([]int{0})[0]
	t2 := ft.mint([]int{0})[0]
	if t2 <= t1 {
		t.Fatalf("mint not monotonic: %d then %d", t1, t2)
	}
	if err := ft.check(0, t2); err != nil {
		t.Fatalf("newer token rejected: %v", err)
	}
	if err := ft.check(0, t1); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("older token after newer presentation: %v, want ErrStaleToken", err)
	}
	// The newer token keeps passing.
	if err := ft.check(0, t2); err != nil {
		t.Fatalf("re-check of high-water token: %v", err)
	}
	ft.retire([]int{0}, []uint64{t2})
	if err := ft.check(0, t2); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("retired token: %v, want ErrStaleToken", err)
	}
}

// Placement enforcement: a node rejects components the ring assigns
// elsewhere, naming the owner.
func TestWrongNodeRejected(t *testing.T) {
	spec := testSpec(t, 4)
	nodes := []string{"node-a", "node-b"}
	place := client.NewPlacement(nodes, 0)
	srvA, err := NewServer(Config{Spec: spec, Node: "node-a", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()

	// Find a component owned by node-b.
	foreign := -1
	for comp := 0; comp < spec.NumComponents(); comp++ {
		if place.Owner(comp) == "node-b" {
			foreign = comp
			break
		}
	}
	if foreign == -1 {
		t.Skip("ring assigned every component to node-a (possible but astronomically unlikely)")
	}
	info, err := srvA.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	r := client.ResourceID(spec.ComponentResources(foreign)[0])
	_, err = srvA.Acquire(context.Background(), info.ID, nil, []client.ResourceID{r})
	var wrong *errWrongNode
	if !errors.As(err, &wrong) || wrong.owner != "node-b" {
		t.Fatalf("foreign acquire: %v, want errWrongNode{owner: node-b}", err)
	}
}

// A two-node cluster: the client routes each slice to its owner in
// ascending component order, and a spanning footprint carries fencing for
// every component.
func TestTwoNodeClusterRouting(t *testing.T) {
	spec := testSpec(t, 4)
	nodes := []string{"A", "B"}
	srvA, urlA := newNode(t, Config{Spec: spec, Node: "A", Nodes: nodes, LeaseTTL: 2 * time.Second})
	srvB, urlB := newNode(t, Config{Spec: spec, Node: "B", Nodes: nodes, LeaseTTL: 2 * time.Second})

	// Positional node→addr mapping (len(addrs) == len(nodes)).
	c := newClient(t, urlA, urlB)
	ctx := context.Background()
	s, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	all := []client.ResourceID{0, 1, 2, 3}
	g, err := s.Acquire(ctx, nil, all)
	if err != nil {
		t.Fatalf("spanning acquire: %v", err)
	}
	comps := map[int]bool{}
	for _, ct := range g.Fencing() {
		comps[ct.Component] = true
	}
	for _, r := range all {
		if !comps[c.ComponentOf(r)] {
			t.Fatalf("fencing misses component of resource %d: %+v", r, g.Fencing())
		}
	}
	// Every node holds only its own components.
	for comp := 0; comp < spec.NumComponents(); comp++ {
		owner := c.Placement().Owner(comp)
		if owner != "A" && owner != "B" {
			t.Fatalf("component %d owned by unknown node %q", comp, owner)
		}
	}
	if err := s.Release(g); err != nil {
		t.Fatal(err)
	}
	if srvA.SessionCount() == 0 && srvB.SessionCount() == 0 {
		t.Fatal("no sessions registered on either node")
	}
}

// Server.Close is idempotent and safe concurrently with live traffic;
// in-flight acquisitions observe shutdown or cancellation, never a hang.
func TestServerCloseConcurrentWithTraffic(t *testing.T) {
	srv, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: time.Second})
	c := newClient(t, url)
	ctx := context.Background()
	s, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, err := s.Write(ctx, 0)
				if err != nil {
					return // shutdown surfaced; fine
				}
				_ = s.Release(g)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	var cg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	cg.Wait()
	close(stop)
	wg.Wait()
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("sessions after Close: %d, want 0", n)
	}
}

// Debug surface: the handler serves the protocol's full DebugMux.
func TestDebugSurfaceMounted(t *testing.T) {
	cfg := Config{
		Spec: testSpec(t, 4),
		Options: []rwrnlp.Option{
			rwrnlp.WithMetrics(),
			rwrnlp.WithFlightRecorder(0),
			rwrnlp.WithTimeSeries(50*time.Millisecond, 64),
			rwrnlp.WithAttribution(5),
		},
	}
	_, url := newNode(t, cfg)
	c := newClient(t, url)
	s, err := c.OpenSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, err := s.Write(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Release(g)

	for _, path := range []string{
		"/healthz", "/metrics", "/metrics?format=openmetrics",
		"/debug/rnlp/flight", "/debug/rnlp/watchdog",
		"/debug/rnlp/timeseries", "/debug/rnlp/attr",
	} {
		resp, err := httpGet(t, url+path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp != 200 {
			t.Fatalf("GET %s: status %d, want 200", path, resp)
		}
	}
}

// TestAcquireTracedSpansUseInjectedClock: the admission and wait spans read
// the clock the leases read, so the whole plane can run under one simulated
// clock. The fake steps a second per reading from an epoch decades away from
// the wall clock, so a single time.Now() left in the path cannot pass.
func TestAcquireTracedSpansUseInjectedClock(t *testing.T) {
	epoch := time.Unix(1_000_000, 0)
	var readings atomic.Int64
	srv, err := NewServer(Config{
		Spec: testSpec(t, 4), LeaseTTL: time.Hour,
		now: func() time.Time { return epoch.Add(time.Duration(readings.Add(1)) * time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	before := readings.Load()
	g, err := srv.AcquireTraced(context.Background(), sess.ID, nil, []client.ResourceID{0}, "trace-1", "span-1")
	if err != nil {
		t.Fatal(err)
	}
	after := readings.Load()
	if len(g.Spans) != 2 || g.Spans[0].Name != "admission" || g.Spans[1].Name != "wait" {
		t.Fatalf("spans = %+v, want admission and wait", g.Spans)
	}
	adm, wait := g.Spans[0], g.Spans[1]
	stamps := []int64{adm.StartUnixNS, adm.EndUnixNS, wait.StartUnixNS, wait.EndUnixNS}
	for i, ns := range stamps {
		off := time.Duration(ns - epoch.UnixNano())
		if off%time.Second != 0 || off <= time.Duration(before)*time.Second || off > time.Duration(after)*time.Second {
			t.Errorf("span timestamp %d = epoch%+v, want a reading of the injected clock in (%ds, %ds]", i, off, before, after)
		}
	}
	if !(adm.StartUnixNS < adm.EndUnixNS && adm.EndUnixNS == wait.StartUnixNS && wait.StartUnixNS < wait.EndUnixNS) {
		t.Errorf("spans out of order: admission [%d, %d], wait [%d, %d]", stamps[0], stamps[1], stamps[2], stamps[3])
	}
}

// TestAcquireTimeoutBoundsABlockedAcquire: the single acquire context still
// enforces AcquireTimeout on a request that has to park, and a granted one
// registers nothing on its session.
func TestAcquireTimeoutBoundsABlockedAcquire(t *testing.T) {
	srv, err := NewServer(Config{Spec: testSpec(t, 4), LeaseTTL: time.Minute, AcquireTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	holder, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := srv.Acquire(context.Background(), holder.ID, nil, []client.ResourceID{0})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := srv.Acquire(context.Background(), waiter.ID, nil, []client.ResourceID{0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked acquire returned %v after %v, want context.DeadlineExceeded", err, time.Since(start))
	}
	if err := srv.Release(holder.ID, g.Handle); err != nil {
		t.Fatal(err)
	}
	// The withdrawn request left nothing behind: the resource is free again.
	g, err = srv.Acquire(context.Background(), waiter.ID, nil, []client.ResourceID{0})
	if err != nil {
		t.Fatalf("acquire after the timed-out one: %v", err)
	}
	if err := srv.Release(waiter.ID, g.Handle); err != nil {
		t.Fatal(err)
	}
}
