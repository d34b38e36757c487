package obs

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// omTestMetrics builds a registry with a fixed, deterministic population —
// aggregate and shard-labeled counters, a gauge, histograms with and without
// a shard label — a deterministic registry clock (so _created values are
// stable) and an exemplar-tagged tail sample.
func omTestMetrics() *Metrics {
	m := NewMetrics()
	var tick int64 = 1700000000_000000000
	m.SetClock(func() int64 { tick += 250_000_000; return tick })
	m.Counter(MIssued).Add(7)
	m.Counter(ShardMetric(MShardAcquires, 0)).Add(3)
	m.Counter(ShardMetric(MShardAcquires, 1)).Add(4)
	m.Gauge(MInflight).Set(2)
	h := m.Histogram(MAcqDelayRead)
	for _, v := range []int64{1, 3, 17} {
		h.Observe(v)
	}
	h.ObserveTagged(900, 41, 1337) // tail sample with a flight-seq exemplar
	sh := m.Histogram(ShardMetric(MShardCombineWaitNS, 1))
	sh.Observe(64)
	return m
}

// Golden test for the OpenMetrics 1.0.0 exposition. Regenerate with
// go test ./internal/obs -run OpenMetricsGolden -update.
func TestWriteOpenMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, omTestMetrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "openmetrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s (run with -update after intentional changes):\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// OpenMetrics structural requirements: _total counters, _created series for
// counters and histograms, well-formed shard labels (merged with le on
// histogram buckets), monotone cumulative buckets, exemplar syntax on the
// tail bucket, exactly one trailing # EOF, and determinism across calls.
func TestWriteOpenMetricsStructure(t *testing.T) {
	s := omTestMetrics().Snapshot()
	var a, b strings.Builder
	if err := WriteOpenMetrics(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition is not deterministic across calls")
	}
	out := a.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", out)
	}
	if n := strings.Count(out, "# EOF"); n != 1 {
		t.Errorf("# EOF appears %d times, want 1", n)
	}
	for _, want := range []string{
		"# TYPE rwrnlp_protocol_issued counter\n",
		"rwrnlp_protocol_issued_total 7\n",
		"rwrnlp_protocol_issued_created ",
		`rwrnlp_shard_acquires_total{shard="0"} 3` + "\n",
		`rwrnlp_shard_acquires_total{shard="1"} 4` + "\n",
		"# TYPE rwrnlp_protocol_inflight gauge\n",
		"rwrnlp_protocol_inflight 2\n",
		"# TYPE rwrnlp_acq_delay_read histogram\n",
		"rwrnlp_acq_delay_read_created ",
		"rwrnlp_acq_delay_read_sum 921\n",
		"rwrnlp_acq_delay_read_count 4\n",
		`rwrnlp_acq_delay_read_bucket{le="+Inf"} 4` + "\n",
		`rwrnlp_shard_combine_wait_ns_bucket{shard="1",le="+Inf"} 1` + "\n",
		`rwrnlp_shard_combine_wait_ns_count{shard="1"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts (the field after the series name; an exemplar
	// may follow it) must be non-decreasing within each histogram series.
	var prev int64
	inBuckets := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket") {
			inBuckets, prev = false, 0
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if inBuckets && v < prev {
			t.Errorf("cumulative bucket decreased: %q after %d", line, prev)
		}
		prev, inBuckets = v, true
	}
	// Gauges must NOT get _total/_created.
	for _, bad := range []string{"rwrnlp_protocol_inflight_total", "rwrnlp_protocol_inflight_created"} {
		if strings.Contains(out, bad) {
			t.Errorf("exposition wrongly contains %q", bad)
		}
	}
	// The 900-valued tail sample must carry its exemplar on the bucket that
	// covers it, in OpenMetrics syntax.
	exRe := regexp.MustCompile(`rwrnlp_acq_delay_read_bucket\{le="\d+"\} \d+ # \{req="41",flight_seq="1337"\} 900\n`)
	if !exRe.MatchString(out) {
		t.Errorf("tail bucket exemplar missing or malformed:\n%s", out)
	}
	if n := strings.Count(out, `req="41"`); n != 1 {
		t.Errorf("exemplar emitted %d times, want exactly once", n)
	}
}
