package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// TestClusterTraceIntegration boots a 3-node in-process cluster (real
// Servers behind real HTTP listeners, node identities = their URLs) and
// proves the distributed-tracing acceptance criteria end to end:
//
//   - a cross-node acquisition produces ONE stitched trace: one trace ID,
//     one wire hop per node slice, client queue + admission + wait + hold
//     spans, with monotone hop timestamps,
//   - the blocking writer on the remote node is named in the waiter's
//     wait-span attributes by its own trace ID,
//   - the trace is resolvable from a scraped OpenMetrics exemplar: tail
//     bucket → trace_id + flight_seq → that node's flight dump → the
//     request's record and chain carry the same trace ID,
//   - /debug/rnlp/cluster reports every node healthy,
//   - the stitched trace renders as a multi-track Perfetto document.
//
// On failure it writes the merged cluster flight dump and the client's
// retained traces to the module root for the CI artifact step.
func TestClusterTraceIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: skipped in -short")
	}

	// 12 two-resource components spread over 3 nodes by consistent hashing.
	const nres = 24
	sb := rwrnlp.NewSpecBuilder(nres)
	for i := 0; i < nres; i += 2 {
		if err := sb.DeclareRequest(nil, []rwrnlp.ResourceID{rwrnlp.ResourceID(i), rwrnlp.ResourceID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	spec := sb.Build()

	// Node identities are their URLs (so the cluster endpoint can scrape
	// peers), which makes placement depend on the ephemeral ports we get.
	// Redraw listeners until the 12 components span at least two nodes —
	// placement is computable from (urls, vnodes) alone, before any server
	// exists, because client and servers share the same static ring.
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for attempt := 0; ; attempt++ {
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			urls[i] = "http://" + ln.Addr().String()
		}
		owners := map[string]bool{}
		for comp := 0; comp < nres/2; comp++ {
			owners[client.NewPlacement(urls, 0).Owner(comp)] = true
		}
		if len(owners) >= 2 {
			break
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
		if attempt >= 25 {
			t.Fatal("could not draw a port set whose placement spans two nodes")
		}
	}
	for i := range lns {
		srv, err := NewServer(Config{
			Spec: spec,
			// Fast paths are off: a fast-path hit bypasses the RSM, so the
			// holder would be untracked and the blocker unnameable (the
			// cockpit shows such waits as path=untracked).
			Options: []rwrnlp.Option{
				rwrnlp.WithPlaceholders(), rwrnlp.WithMetrics(), rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}),
				rwrnlp.WithFlightRecorder(256), rwrnlp.WithAttribution(10),
				rwrnlp.WithTimeSeries(100*time.Millisecond, 0),
			},
			LeaseTTL: 2 * time.Second,
			Node:     urls[i],
			Nodes:    urls,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(lns[i]) }()
		t.Cleanup(func() { _ = hs.Close(); _ = srv.Close() })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.New(ctx, urls)
	if err != nil {
		t.Fatal(err)
	}

	// Failure artifacts: merged flight dump + client traces, written where
	// the CI integration job's artifact glob picks them up.
	defer func() {
		if !t.Failed() {
			return
		}
		root := moduleRoot(t)
		var dumps []obs.FlightDump
		var names []string
		for _, u := range urls {
			body, err := httpBody(u + "/debug/rnlp/flight")
			if err != nil {
				continue
			}
			if d, err := obs.ParseFlightDump(strings.NewReader(body)); err == nil {
				dumps = append(dumps, d)
				names = append(names, u)
			}
		}
		merged := obs.MergeFlightDumps(dumps, names)
		if b, err := json.MarshalIndent(merged, "", " "); err == nil {
			_ = os.WriteFile(filepath.Join(root, "cluster_merged.flight.json"), b, 0o644)
		}
		if b, err := json.MarshalIndent(c.Traces(), "", " "); err == nil {
			_ = os.WriteFile(filepath.Join(root, "cluster_stitched.trace.json"), b, 0o644)
		}
		t.Logf("wrote cluster_merged.flight.json and cluster_stitched.trace.json to %s", root)
	}()

	// Pick two write targets whose components live on different nodes. The
	// client routes slices in ascending component order, so the expected hop
	// order is derivable from the component indices.
	owner := func(r client.ResourceID) string {
		return c.Placement().Owner(c.ComponentOf(r))
	}
	r1 := client.ResourceID(0)
	nodeX := owner(r1)
	var r2 client.ResourceID
	var nodeY string
	for i := 2; i < nres; i += 2 {
		if o := owner(client.ResourceID(i)); o != nodeX {
			r2, nodeY = client.ResourceID(i), o
			break
		}
	}
	if nodeY == "" {
		t.Fatal("consistent hashing placed all 12 components on one node")
	}
	t.Logf("cross-node footprint: write{%d}@%s + write{%d}@%s", r1, nodeX, r2, nodeY)

	// Session A holds write{r2} on node Y; its trace ID is what B's wait
	// span must later name as the blocker.
	sessA, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()
	gA, err := sessA.Write(ctx, r2)
	if err != nil {
		t.Fatal(err)
	}
	aTrace := gA.TraceID()
	if aTrace == "" {
		t.Fatal("no trace ID on A's grant")
	}

	sessB, err := c.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sessB.Close()

	// Release A once B's request has demonstrably issued on node Y (its
	// protocol_issued counter moves) plus a real blocking interval — no
	// fixed sleep racing B's session setup.
	baseIssued := issuedCount(t, nodeY)
	relErr := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for issuedCount(t, nodeY) <= baseIssued {
			if time.Now().After(deadline) {
				relErr <- fmt.Errorf("B's request never issued on %s", nodeY)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(150 * time.Millisecond) // hold B blocked for a measurable span
		relErr <- sessA.Release(gA)
	}()

	start := time.Now()
	gB, err := sessB.Write(ctx, r1, r2)
	blockedFor := time.Since(start)
	if err != nil {
		t.Fatalf("cross-node acquire: %v", err)
	}
	if err := <-relErr; err != nil {
		t.Fatal(err)
	}
	bTrace := gB.TraceID()
	if bTrace == "" || bTrace == aTrace {
		t.Fatalf("bad trace ID on B's grant: %q (A's: %q)", bTrace, aTrace)
	}
	if blockedFor < 100*time.Millisecond {
		t.Errorf("B blocked only %v; expected to wait on A's hold", blockedFor)
	}

	// Release commits the full trace (with the hold span) to the client log.
	if err := sessB.Release(gB); err != nil {
		t.Fatal(err)
	}
	tr, ok := c.TraceByID(bTrace)
	if !ok {
		t.Fatal("client did not retain B's trace")
	}

	// ---- one stitched trace: span inventory and causal structure --------
	count := map[string]int{}
	for _, s := range tr.Spans {
		count[s.Name]++
	}
	for name, n := range map[string]int{
		"acquire": 1, "queue": 1, "wire": 2, "admission": 2, "wait": 2, "hold": 1,
	} {
		if count[name] != n {
			t.Errorf("trace has %d %q span(s), want %d: %+v", count[name], name, n, tr.Spans)
		}
	}

	// Hop order follows ascending components; timestamps are monotone and
	// the hops do not overlap (slice-by-slice acquisition is sequential).
	hopWant := []string{nodeX, nodeY}
	if c.ComponentOf(r1) > c.ComponentOf(r2) {
		hopWant = []string{nodeY, nodeX}
	}
	var wires []client.Span
	for _, s := range tr.Spans { // spans are kept in start order
		if s.Name == "wire" {
			wires = append(wires, s)
		}
	}
	if len(wires) == 2 {
		if wires[0].Node != hopWant[0] || wires[1].Node != hopWant[1] {
			t.Errorf("hop order %s → %s, want %s → %s", wires[0].Node, wires[1].Node, hopWant[0], hopWant[1])
		}
		if wires[0].StartUnixNS >= wires[1].StartUnixNS {
			t.Errorf("hop timestamps not monotone: %d then %d", wires[0].StartUnixNS, wires[1].StartUnixNS)
		}
		if wires[0].EndUnixNS > wires[1].StartUnixNS {
			t.Errorf("hops overlap: first ends %d, second starts %d", wires[0].EndUnixNS, wires[1].StartUnixNS)
		}
	}

	// ---- the blocking writer is named by trace ID -----------------------
	var waitY *client.Span
	for i := range tr.Spans {
		if tr.Spans[i].Name == "wait" && tr.Spans[i].Node == nodeY {
			waitY = &tr.Spans[i]
		}
	}
	if waitY == nil {
		t.Fatal("no wait span from the blocking node")
	}
	blockerNamed := false
	for k, v := range waitY.Attrs {
		if strings.HasPrefix(k, "blocker_trace_") && v == aTrace {
			blockerNamed = true
		}
	}
	if !blockerNamed {
		t.Errorf("wait span attrs %v do not name the blocking writer's trace %s", waitY.Attrs, aTrace)
	}
	if _, ok := waitY.Attrs["delay_ticks"]; !ok {
		t.Errorf("wait span attrs %v carry no shard-wait decomposition", waitY.Attrs)
	}

	// ---- exemplar → flight → trace join on the blocking node ------------
	om, err := httpBody(nodeY + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	exRe := regexp.MustCompile(`flight_seq="([0-9]+)",trace_id="` + bTrace + `"`)
	m := exRe.FindStringSubmatch(om)
	if m == nil {
		t.Fatalf("no OpenMetrics exemplar on %s carries trace %s", nodeY, bTrace)
	}
	seq, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := httpBody(nodeY + "/debug/rnlp/flight")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := obs.ParseFlightDump(strings.NewReader(fd))
	if err != nil {
		t.Fatal(err)
	}
	rec, chain, err := dump.ResolveSeq(seq)
	if err != nil {
		t.Fatalf("resolve exemplar flight_seq %d: %v", seq, err)
	}
	if rec.Tag != bTrace {
		t.Errorf("flight seq %d names a record tagged %q, want %q", seq, rec.Tag, bTrace)
	}
	if chain.Tag != bTrace {
		t.Errorf("flight seq %d resolves to a chain tagged %q, want %q", seq, chain.Tag, bTrace)
	}
	if blk := dump.FilterTag(aTrace); len(blk.Records) == 0 {
		t.Errorf("node %s flight dump retains no records for the blocking writer's trace %s", nodeY, aTrace)
	}

	// ---- cluster cockpit: every node healthy ----------------------------
	cb, err := httpBody(urls[0] + "/debug/rnlp/cluster?window=30s")
	if err != nil {
		t.Fatal(err)
	}
	var crep obs.ClusterReport
	if err := json.Unmarshal([]byte(cb), &crep); err != nil {
		t.Fatal(err)
	}
	if crep.Healthy != 3 || len(crep.Nodes) != 3 {
		t.Errorf("cluster report: %d healthy of %d nodes, want 3 of 3", crep.Healthy, len(crep.Nodes))
	}

	// ---- the stitched trace renders as a multi-track Perfetto doc -------
	var pb strings.Builder
	if err := tr.WritePerfetto(&pb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traceEvents", "node " + nodeX, "node " + nodeY} {
		if !strings.Contains(pb.String(), want) {
			t.Errorf("Perfetto render missing %q", want)
		}
	}
}

// issuedCount scrapes a node's protocol_issued counter.
func issuedCount(t *testing.T, base string) int64 {
	t.Helper()
	body, err := httpBody(base + "/metrics")
	if err != nil {
		return -1 // node warming up; poller retries
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("bad /metrics body from %s: %v", base, err)
		return -1
	}
	return snap.Counters["protocol_issued"]
}

// httpBody fetches a URL and returns its body as a string.
func httpBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return string(b), nil
}
