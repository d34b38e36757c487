package obs

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newScrapeTarget serves a DebugMux over a registry with some traffic and an
// attributor, returning the test server.
func newScrapeTarget(t *testing.T) *httptest.Server {
	t.Helper()
	m := NewMetrics()
	m.Counter(MIssued).Add(10)
	m.Counter(MSatisfied).Add(9)
	ts := NewTimeSeries(m, time.Millisecond, 16)
	ts.Capture()
	m.Counter(MSatisfied).Add(3)
	m.Histogram(MAcqDelayRead).Observe(7)
	time.Sleep(2 * time.Millisecond)
	ts.Capture()
	attr := NewAttributor(m, 5)
	driveFig2(t, NewPipeline(Sinks{Attribution: attr}))
	srv := httptest.NewServer(NewDebugMux(DebugMuxConfig{
		Metrics:     m,
		Series:      ts,
		Attribution: attr.Report,
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestScrapeCluster: two healthy nodes plus one dead one merge into a report
// with summed counts, per-node health, node-tagged top chains — and the
// fan-out leaves no goroutines behind.
func TestScrapeCluster(t *testing.T) {
	a, b := newScrapeTarget(t), newScrapeTarget(t)
	dead := httptest.NewServer(nil)
	dead.Close() // connection-refused node

	nodes := []ClusterNode{
		{Name: "a", URL: a.URL},
		{Name: "b", URL: b.URL},
		{Name: "dead", URL: dead.URL},
	}
	before := goroutinesWith("obs.FetchNodeStatus")
	rep := ScrapeCluster(context.Background(), nil, nodes, time.Minute)
	if after := goroutinesWith("obs.FetchNodeStatus"); after > before {
		t.Fatalf("ScrapeCluster leaked %d scrape goroutine(s)", after-before)
	}

	if len(rep.Nodes) != 3 || rep.Healthy != 2 {
		t.Fatalf("healthy=%d nodes=%d, want 2 of 3", rep.Healthy, len(rep.Nodes))
	}
	for _, st := range rep.Nodes {
		if st.Name == "dead" {
			if st.Healthy || st.Err == "" {
				t.Fatalf("dead node status = %+v, want unhealthy with error", st)
			}
		} else if !st.Healthy {
			t.Fatalf("node %s unhealthy: %s", st.Name, st.Err)
		}
	}
	// Each node saw 3 satisfieds inside its window; the cluster sums them.
	var perNode float64
	for _, st := range rep.Nodes {
		if st.Name == "a" {
			perNode = st.Series.Rates[MSatisfied]
		}
	}
	if perNode <= 0 {
		t.Fatal("node a has no satisfied rate in window")
	}
	if got := rep.Rates[MSatisfied]; got < 1.5*perNode {
		t.Fatalf("cluster satisfied rate %f does not sum both nodes (per-node %f)", got, perNode)
	}
	// Windowed tails merge conservatively (max), so the cluster tail is at
	// least one node's.
	if rep.Hists[MAcqDelayRead].Count != 2 || rep.Hists[MAcqDelayRead].Max == 0 {
		t.Fatalf("merged %s = %+v, want count 2 with nonzero max", MAcqDelayRead, rep.Hists[MAcqDelayRead])
	}
	// Top chains are node-tagged and delay-sorted.
	if len(rep.Top) == 0 {
		t.Fatal("no merged top chains")
	}
	for i, c := range rep.Top {
		if c.Node != "a" && c.Node != "b" {
			t.Fatalf("chain %d tagged %q", i, c.Node)
		}
		if i > 0 && c.Chain.Delay > rep.Top[i-1].Chain.Delay {
			t.Fatalf("top chains not delay-sorted: %+v", rep.Top)
		}
	}
	if rep.BoundNode == "" {
		t.Fatal("no worst-bound node named")
	}
}

// TestMergeClusterEmpty: merging nothing (or only dead nodes) must not panic
// and reports zero healthy.
func TestMergeClusterEmpty(t *testing.T) {
	rep := MergeCluster(nil)
	if rep.Healthy != 0 || len(rep.Top) != 0 {
		t.Fatalf("empty merge = %+v", rep)
	}
	rep = MergeCluster([]NodeStatus{{Name: "x", Err: "down"}})
	if rep.Healthy != 0 {
		t.Fatalf("dead-only merge healthy=%d", rep.Healthy)
	}
}

// goroutinesWith counts live goroutines whose stack contains sub.
func goroutinesWith(sub string) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, sub) {
			count++
		}
	}
	return count
}

// TestMergeFlightDumps: per-node dumps merge with disjoint shard ranges,
// collision-free request IDs, node labels, and tag filtering.
func TestMergeFlightDumps(t *testing.T) {
	fl1 := NewFlightRecorder(2, 64)
	fl2 := NewFlightRecorder(1, 64)
	driveFig2(t, NewPipeline(Sinks{Flight: fl1}))
	driveFig2(t, NewPipeline(Sinks{Flight: fl2}))

	d1, d2 := fl1.Dump(), fl2.Dump()
	m := MergeFlightDumps([]FlightDump{d1, d2}, []string{"n1", "n2"})

	if m.Shards != 3 {
		t.Fatalf("merged shards = %d, want 2+1", m.Shards)
	}
	if len(m.Records) != len(d1.Records)+len(d2.Records) {
		t.Fatalf("merged %d records, want %d", len(m.Records), len(d1.Records)+len(d2.Records))
	}
	seenNodes := map[string]bool{}
	reqNodes := map[int64]string{}
	var lastSeq uint64
	for _, r := range m.Records {
		seenNodes[r.Node] = true
		if r.Seq != lastSeq+1 {
			t.Fatalf("seq not renumbered densely: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		if r.Node == "n2" && r.Shard != 2 {
			t.Fatalf("n2 record on shard %d, want offset to 2", r.Shard)
		}
		if prev, ok := reqNodes[r.Req]; ok && prev != r.Node {
			t.Fatalf("request ID %d appears on both %s and %s", r.Req, prev, r.Node)
		}
		reqNodes[r.Req] = r.Node
	}
	if !seenNodes["n1"] || !seenNodes["n2"] {
		t.Fatalf("node labels missing: %v", seenNodes)
	}

	// Both nodes ran a request tagged "B"; the tag filter keeps exactly those
	// two lifecycles and nothing else.
	f := m.FilterTag("B")
	if len(f.Records) == 0 {
		t.Fatal("FilterTag(B) empty")
	}
	reqs := map[int64]string{}
	for _, r := range f.Records {
		if r.Tag != "B" {
			t.Fatalf("filtered record has tag %q", r.Tag)
		}
		reqs[r.Req] = r.Node
	}
	if len(reqs) != 2 {
		t.Fatalf("FilterTag(B) covers %d requests, want one per node: %v", len(reqs), reqs)
	}

	// The merged dump still renders as a Perfetto trace.
	var sb strings.Builder
	if err := m.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatal("merged perfetto output malformed")
	}
}
