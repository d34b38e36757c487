package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
)

// gate is one same-run ablation pair: variant may cost at most threshold
// percent more ns/op than base (a negative threshold demands a speed-up).
type gate struct {
	name          string // row name; a failing row leaves <name>_pair.json behind
	pkg           string // package holding the benchmarks
	bench         string // -bench regex selecting both sides
	base, variant string // benchmark names (suffix-matched, see lookupResult)
	threshold     float64
	why           string // what the bound protects, in one line
}

// gates is the pair-gate table: every same-run overhead or speed-up bound CI
// enforces. A bound belongs here only while both of its sides are code paths
// the repo still ships; a settled comparison is deleted with its losing side
// and recorded in EXPERIMENTS.md instead.
var gates = []gate{
	{"flight", ".", "BenchmarkAcquire/flight", "BenchmarkAcquire/flight=off", "BenchmarkAcquire/flight=on", 200,
		"flight recorder: a handful of ring stores and three set copies per event on the RSM write round trip; off is an RSM with no observer, which builds no events. Restated from +100% when the base stopped allocating (PR 20): parent 1944 -> 3640 and 2020 -> 3519 ns (+87%, +74%), change 1327 -> 2164, 1306 -> 2480 and 961 -> 2262 ns (+63%, +90%, +135%) — the recorder's ~1.2 us is what it was, over a base that lost a third to a half"},
	{"hdr", ".", "BenchmarkAcquire/(hdr|obs)", "BenchmarkAcquire/hdr=off", "BenchmarkAcquire/hdr=on", 150,
		"the whole metrics plane (HDR histograms + sharded counters on every event), hence wider than flight"},
	{"obs-all", ".", "BenchmarkAcquire/(hdr|obs)", "BenchmarkAcquire/hdr=off", "BenchmarkAcquire/obs=all", 400,
		"the whole pipeline under rnlpd's default options (flight + metrics + time series + attribution over one request table); a second per-request table or per-event lock shows here. Restated from +230% when the base stopped allocating (PR 20): parent 2035 -> 4352 and 2504 -> 4943 ns (+114%, +97%), change 1064 -> 3917, 1157 -> 4411 and 1073 -> 4199 ns (+268%, +281%, +291%) — the variant is faster than it was, the base by more"},
	{"wfast", ".", "BenchmarkUncontendedWriter/wfast", "BenchmarkUncontendedWriter/wfast=off", "BenchmarkUncontendedWriter/wfast=on", -60,
		"writer fast path: the single-CAS claim must stay >= 60% faster than the ~1.1 us RSM slow path"},
	{"trace", ".", "BenchmarkTracedAcquire/trace", "BenchmarkTracedAcquire/trace=off", "BenchmarkTracedAcquire/trace=on", 15,
		"request tags on the contended loop: one context lookup + a tag copy per event (~1%); catches a per-event allocation"},
	{"net", "./internal/service", "BenchmarkAcquireRelease/net", "BenchmarkAcquireRelease/net=off", "BenchmarkAcquireRelease/net=on", 12000,
		"JSON + loopback HTTP over the in-process service plane (~80x): catches a second round trip or lost keep-alive"},
	{"net-obs", "./internal/service", "BenchmarkAcquireRelease/net", "BenchmarkAcquireRelease/net=on", "BenchmarkAcquireRelease/net=on,obs=rnlpd", 30,
		"rnlpd's own observability options on the hop: catches request-path work that grows with retained history"},
}

// gateSamples is how many interleaved `go test` invocations feed each side's
// minimum (see the protocol note atop main.go).
const gateSamples = 5

// gatesMain implements `benchjson gates`: run every row of the table. Exit 0
// if every row holds, 1 if any is past its threshold, 2 on sampling or
// lookup errors.
func gatesMain() int {
	// Rows over the same benchmarks share one sampling.
	sampled := map[string][]Result{}
	exit := 0
	for _, g := range gates {
		key := g.pkg + " " + g.bench
		results, ok := sampled[key]
		if !ok {
			var err error
			if results, err = sampleGate(g); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson gates: %s: %v\n", g.name, err)
				return 2
			}
			sampled[key] = results
		}
		fmt.Printf("%-8s %s\n", g.name, g.why)
		code := checkPair(byName(results), g.base, g.variant, g.threshold)
		if code == 1 {
			// Keep the offending snapshot for offline comparison (CI uploads
			// *_pair.json as a failure artifact).
			_ = os.WriteFile(g.name+"_pair.json", marshalSnapshot(results), 0o644)
		}
		exit = max(exit, code)
	}
	return exit
}

// sampleGate runs a row's benchmarks gateSamples times, one sample per side
// per invocation, and min-merges the output.
func sampleGate(g gate) ([]Result, error) {
	var out bytes.Buffer
	for i := 0; i < gateSamples; i++ {
		cmd := exec.Command("go", "test", "-bench", g.bench, "-benchtime=0.3s", "-count=1", "-run=^$", g.pkg)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(out.Bytes())
			return nil, err
		}
	}
	return parseBench(&out)
}

// checkPair compares two benchmarks of one snapshot: 0 when variant is at
// most threshold percent slower than base, 1 when it is past it, 2 when
// either is missing.
func checkPair(snap map[string]Result, baseName, variantName string, threshold float64) int {
	base, err := lookupResult(snap, baseName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson gates:", err)
		return 2
	}
	variant, err := lookupResult(snap, variantName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson gates:", err)
		return 2
	}
	if base.NsPerOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson gates: %s has no ns/op measurement\n", base.Name)
		return 2
	}
	delta := (variant.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
	status, code := "ok", 0
	if delta > threshold {
		status, code = "EXCEEDED", 1
	}
	fmt.Printf("%-9s %s %.1f ns/op vs %s %.1f ns/op  (%+.1f%%, threshold %+.1f%%)\n",
		status, base.Name, base.NsPerOp, variant.Name, variant.NsPerOp, delta, threshold)
	return code
}
