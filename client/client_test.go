package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNode is a hand-rolled rnlpd wire-protocol stub (the client package
// cannot import internal/service — service imports client). Behavior is
// steered per test through the acquire hook.
type fakeNode struct {
	name string
	srv  *httptest.Server

	acquires atomic.Int64
	// acquire, when set, overrides the default always-grant behavior;
	// release likewise the always-succeed one.
	acquire func(req AcquireRequest, w http.ResponseWriter)
	release func(w http.ResponseWriter)
}

func newFakeNode(t *testing.T, name string, spec *SpecInfo) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/spec", func(w http.ResponseWriter, r *http.Request) {
		s := *spec
		s.Node = n.name
		writeTestJSON(w, s)
	})
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		writeTestJSON(w, SessionInfo{ID: "s-" + n.name, TTLMS: 60_000})
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeTestJSON(w, SessionInfo{ID: "s-" + n.name, TTLMS: 60_000})
	})
	mux.HandleFunc("POST /v1/close", func(w http.ResponseWriter, r *http.Request) {
		writeTestJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		if n.release != nil {
			n.release(w)
			return
		}
		writeTestJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/acquire", func(w http.ResponseWriter, r *http.Request) {
		n.acquires.Add(1)
		var req AcquireRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if n.acquire != nil {
			n.acquire(req, w)
			return
		}
		info := GrantInfo{Handle: "h1"}
		if req.TraceID != "" {
			now := time.Now().UnixNano()
			info.Spans = []WireSpan{
				{Name: "admission", Node: n.name, Parent: req.SpanID, StartUnixNS: now - 2000, EndUnixNS: now - 1000},
				{Name: "wait", Node: n.name, Parent: req.SpanID, StartUnixNS: now - 1000, EndUnixNS: now,
					Attrs: map[string]string{"delay_ticks": "3"}},
			}
		}
		writeTestJSON(w, info)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func writeTestJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeTestErr(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// singleNodeSpec is a one-node cluster over 4 resources in 2 components.
func singleNodeSpec() *SpecInfo {
	return &SpecInfo{
		Resources:  4,
		Components: [][]ResourceID{{0, 1}, {2, 3}},
		Nodes:      []string{"A"},
		LeaseTTLMS: 60_000,
	}
}

// TestAcquireTraceAssembly drives one traced acquisition end to end against a
// stub node and checks the stitched trace: span inventory, parentage to the
// root, the server spans' node label, and the Perfetto rendering.
func TestAcquireTraceAssembly(t *testing.T) {
	spec := singleNodeSpec()
	node := newFakeNode(t, "A", spec)
	ctx := context.Background()
	c, err := New(ctx, []string{node.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	g, err := sess.Write(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := g.TraceID()
	if id == "" {
		t.Fatal("grant has no trace ID")
	}
	if err := sess.Release(g); err != nil {
		t.Fatal(err)
	}

	tr, ok := c.TraceByID(id)
	if !ok {
		t.Fatalf("trace %s not retained; have %d traces", id, len(c.Traces()))
	}
	if tr.Err != "" {
		t.Fatalf("successful acquisition recorded error %q", tr.Err)
	}
	names := map[string]int{}
	rootID := ""
	for _, s := range tr.Spans {
		names[s.Name]++
		if s.Name == "acquire" {
			rootID = s.ID
		}
	}
	for _, want := range []string{"acquire", "queue", "wire", "admission", "wait", "hold"} {
		if names[want] != 1 {
			t.Fatalf("span %q appears %d times, want 1 (spans: %+v)", want, names[want], tr.Spans)
		}
	}
	for _, s := range tr.Spans {
		switch s.Name {
		case "acquire":
		case "queue", "wire", "hold":
			if s.Parent != rootID {
				t.Fatalf("%s span parent %q, want root %q", s.Name, s.Parent, rootID)
			}
		case "admission", "wait":
			if s.Node != "A" {
				t.Fatalf("%s span node %q, want A", s.Name, s.Node)
			}
		}
	}
	if ws := findSpan(t, tr, "wait"); ws.Attrs["delay_ticks"] != "3" {
		t.Fatalf("wait span attrs = %v, want delay_ticks=3", ws.Attrs)
	}

	var buf strings.Builder
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	// 6 spans + 2 process_name metadata (client + node A).
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("perfetto has %d events, want 8", len(doc.TraceEvents))
	}

	snap := c.MetricsSnapshot()
	if snap.Counters[MClientAcquires] != 1 {
		t.Fatalf("client_acquires = %d, want 1", snap.Counters[MClientAcquires])
	}
	if snap.Hists[MClientAcquireNS].Count != 1 || snap.Hists[MClientReleaseNS].Count != 1 {
		t.Fatalf("latency histograms not recorded: %+v", snap.Hists)
	}
}

func findSpan(t *testing.T, tr Trace, name string) Span {
	t.Helper()
	for _, s := range tr.Spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("trace has no %q span", name)
	return Span{}
}

// TestWithoutTracing: no trace IDs on the wire, no retained traces, but
// telemetry stays on.
func TestWithoutTracing(t *testing.T) {
	spec := singleNodeSpec()
	node := newFakeNode(t, "A", spec)
	node.acquire = func(req AcquireRequest, w http.ResponseWriter) {
		if req.TraceID != "" || req.SpanID != "" {
			t.Errorf("WithoutTracing leaked trace fields: %+v", req)
		}
		writeTestJSON(w, GrantInfo{Handle: "h1"})
	}
	ctx := context.Background()
	c, err := New(ctx, []string{node.srv.URL}, WithoutTracing())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	g, err := sess.Write(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.TraceID() != "" {
		t.Fatal("TraceID non-empty under WithoutTracing")
	}
	if err := sess.Release(g); err != nil {
		t.Fatal(err)
	}
	if got := c.Traces(); got != nil {
		t.Fatalf("Traces() = %v, want nil", got)
	}
	if c.MetricsSnapshot().Counters[MClientAcquires] != 1 {
		t.Fatal("telemetry off under WithoutTracing; must stay on")
	}
}

// TestWrongNodeReroute: the routed node rejects with wrong_node naming a
// peer; the client re-routes once, counts it, and the grant lands on the
// owner.
func TestWrongNodeReroute(t *testing.T) {
	spec := &SpecInfo{
		Resources:  4,
		Components: [][]ResourceID{{0, 1}, {2, 3}},
		LeaseTTLMS: 60_000,
	}
	a := newFakeNode(t, "", spec)
	b := newFakeNode(t, "", spec)
	// Node identities are the base URLs, the rnlpd convention.
	a.name, b.name = a.srv.URL, b.srv.URL
	spec.Nodes = []string{a.srv.URL, b.srv.URL}

	ctx := context.Background()
	c, err := New(ctx, []string{a.srv.URL, b.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	// Placement hashes the nodes' ephemeral URLs, so which node owns what
	// varies by run: call A whichever one component 0 routes to.
	if c.owner(0) == b.srv.URL {
		a, b = b, a
	}
	a.acquire = func(req AcquireRequest, w http.ResponseWriter) {
		writeTestErr(w, http.StatusMisdirectedRequest, ErrorBody{
			Code: CodeWrongNode, Error: "component moved", Owner: b.srv.URL,
		})
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Acquire every resource: whichever slice routes to A gets bounced to B.
	g, err := sess.Acquire(ctx, nil, []ResourceID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Release(g); err != nil {
		t.Fatal(err)
	}
	snap := c.MetricsSnapshot()
	if a.acquires.Load() == 0 {
		t.Fatal("nothing was routed to the rejecting node")
	}
	if got := snap.Counters[MClientReroutes]; got != a.acquires.Load() {
		t.Fatalf("client_reroutes = %d, want %d (one per wrong_node rejection)", got, a.acquires.Load())
	}
}

// TestWrongNodeNoRerouteLoop: a second wrong_node from the named owner must
// surface the error, not ping-pong.
func TestWrongNodeNoRerouteLoop(t *testing.T) {
	spec := &SpecInfo{
		Resources:  2,
		Components: [][]ResourceID{{0, 1}},
		LeaseTTLMS: 60_000,
	}
	a := newFakeNode(t, "", spec)
	b := newFakeNode(t, "", spec)
	a.name, b.name = a.srv.URL, b.srv.URL
	spec.Nodes = []string{a.srv.URL, b.srv.URL}
	bounce := func(owner string) func(AcquireRequest, http.ResponseWriter) {
		return func(req AcquireRequest, w http.ResponseWriter) {
			writeTestErr(w, http.StatusMisdirectedRequest, ErrorBody{
				Code: CodeWrongNode, Error: "not here", Owner: owner,
			})
		}
	}
	a.acquire = bounce(b.srv.URL)
	b.acquire = bounce(a.srv.URL)

	ctx := context.Background()
	c, err := New(ctx, []string{a.srv.URL, b.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Write(ctx, 0); !errors.Is(err, ErrWrongNode) {
		t.Fatalf("err = %v, want ErrWrongNode after one re-route", err)
	}
	if total := a.acquires.Load() + b.acquires.Load(); total != 2 {
		t.Fatalf("%d acquire attempts, want exactly 2 (original + one re-route)", total)
	}
}

// TestRollbackFailureSurfaces: when a cross-node acquisition fails on its
// second node and the release of the slice already held on the first fails
// too, that slice is stranded until its lease expires — the caller must be
// told, and client_rollback_failures must count it. A first node that answers
// "lease expired" has freed the slice itself: no failure.
func TestRollbackFailureSurfaces(t *testing.T) {
	spec := &SpecInfo{Resources: 8, LeaseTTLMS: 60_000}
	for r := 0; r < spec.Resources; r++ {
		spec.Components = append(spec.Components, []ResourceID{r})
	}
	a := newFakeNode(t, "", spec)
	b := newFakeNode(t, "", spec)
	a.name, b.name = a.srv.URL, b.srv.URL
	spec.Nodes = []string{a.srv.URL, b.srv.URL}
	nodes := map[string]*fakeNode{a.name: a, b.name: b}

	ctx := context.Background()
	c, err := New(ctx, []string{a.srv.URL, b.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// The two lowest resources on different nodes: the lower is acquired
	// first, on `first`; the higher then fails on `second`.
	lo, hi := 0, 1
	for c.Placement().Owner(hi) == c.Placement().Owner(lo) {
		if hi++; hi == spec.Resources {
			t.Skip("placement put every component on one node")
		}
	}
	first, second := nodes[c.Placement().Owner(lo)], nodes[c.Placement().Owner(hi)]
	second.acquire = func(req AcquireRequest, w http.ResponseWriter) {
		writeTestErr(w, http.StatusServiceUnavailable, ErrorBody{Code: CodeShuttingDown, Error: "draining"})
	}

	first.release = func(w http.ResponseWriter) {
		writeTestErr(w, http.StatusConflict, ErrorBody{Code: CodeLeaseExpired, Error: "lease ran out"})
	}
	_, err = sess.Acquire(ctx, nil, []ResourceID{lo, hi})
	if !errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("err = %v, want ErrShuttingDown alone: the node had already freed the slice", err)
	}
	if got := c.MetricsSnapshot().Counters[MClientRollbackFails]; got != 0 {
		t.Fatalf("client_rollback_failures = %d after a rollback the node had pre-empted, want 0", got)
	}

	first.release = func(w http.ResponseWriter) {
		writeTestErr(w, http.StatusInternalServerError, ErrorBody{Code: "internal", Error: "disk on fire"})
	}
	_, err = sess.Acquire(ctx, nil, []ResourceID{lo, hi})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want the acquisition's own failure (ErrShuttingDown) kept", err)
	}
	for _, want := range []string{"rollback", "h1", first.name, "disk on fire"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to name %q", err, want)
		}
	}
	if got := c.MetricsSnapshot().Counters[MClientRollbackFails]; got != 1 {
		t.Fatalf("client_rollback_failures = %d, want 1", got)
	}
	trs := c.Traces()
	if len(trs) == 0 || !strings.Contains(trs[len(trs)-1].Err, "rollback") {
		t.Errorf("the failed acquisition's trace does not record the stranded slice: %+v", trs)
	}

	mux := httptest.NewServer(c.DebugMux())
	defer mux.Close()
	resp, err := http.Get(mux.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), MClientRollbackFails) {
		t.Errorf("DebugMux /metrics does not serve %s:\n%s", MClientRollbackFails, text)
	}
}

// TestNodeUnreachable: transport failures wrap into NodeUnreachableError with
// the node identity, match ErrNodeUnreachable, and count.
func TestNodeUnreachable(t *testing.T) {
	spec := singleNodeSpec()
	node := newFakeNode(t, "A", spec)
	ctx := context.Background()
	c, err := New(ctx, []string{node.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	node.srv.Close() // kill the node out from under the session

	_, err = sess.Write(ctx, 0)
	if !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("err = %v, want ErrNodeUnreachable", err)
	}
	var nu *NodeUnreachableError
	if !errors.As(err, &nu) {
		t.Fatalf("err %v does not carry *NodeUnreachableError", err)
	}
	if nu.Node != "A" || nu.Addr == "" {
		t.Fatalf("NodeUnreachableError = %+v, want Node A with an address", nu)
	}
	if c.MetricsSnapshot().Counters[MClientNodeUnreachable] == 0 {
		t.Fatal("client_node_unreachable not counted")
	}
	// The failed acquisition still commits its partial trace, with the error.
	trs := c.Traces()
	if len(trs) == 0 || trs[len(trs)-1].Err == "" {
		t.Fatalf("failed acquisition left no errored trace: %+v", trs)
	}
}

// TestClientDebugMux smoke-tests the client's observability surface.
func TestClientDebugMux(t *testing.T) {
	spec := singleNodeSpec()
	node := newFakeNode(t, "A", spec)
	ctx := context.Background()
	c, err := New(ctx, []string{node.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, WithoutKeepAlive())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	g, err := sess.Write(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := g.TraceID()
	if err := sess.Release(g); err != nil {
		t.Fatal(err)
	}

	mux := httptest.NewServer(c.DebugMux())
	defer mux.Close()
	for _, path := range []string{
		"/healthz",
		"/metrics",
		"/metrics?format=openmetrics",
		"/debug/rnlp/trace",
		"/debug/rnlp/trace?id=" + id,
		"/debug/rnlp/trace?id=" + id + "&format=perfetto",
	} {
		resp, err := http.Get(mux.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(mux.URL + "/debug/rnlp/trace?id=nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: HTTP %d, want 404", resp.StatusCode)
	}
}
