// Command benchjson converts `go test -bench` text output (on stdin) into a
// machine-readable JSON snapshot: benchmark name → ns/op, B/op, allocs/op.
// Lines that are not benchmark results are ignored, so the full test output
// can be piped through unfiltered. Used by `make bench-json` to record
// BENCH_<date>.json performance snapshots.
//
// A second mode compares two snapshots and fails on throughput regressions:
//
//	benchjson compare [-threshold 15] [-match regex] old.json new.json
//
// exits 1 if any benchmark present in both files slowed down by more than
// threshold percent (ns/op). Used by `make bench-check` and the CI perf
// gate.
//
// A third mode runs the same-run ablation pair gates — immune to cross-run
// machine drift — from the one table in gates.go:
//
//	benchjson gates
//
// samples each row's benchmarks, fails (exit 1) if any row's variant exceeds
// its base by more than the row's threshold percent (ns/op), and leaves
// <name>_pair.json behind for every failing row. Used by `make pair-gates`.
//
// Pair-gate protocol: five separate `go test -count=1` invocations of the
// row's benchmarks, merged by MINIMUM ns/op, so each side of the pair is the
// min of five interleaved samples. This matters: a single-run pair on a
// shared machine routinely inverts (a 2026-08-06 snapshot recorded the
// observed variant at 467 ns/op against a 577 ns/op uninstrumented baseline
// — a -19% "overhead" that was pure scheduler noise), and one `-count=5`
// invocation measures all of one side's samples back-to-back before the
// other's, which turns any minutes-scale load shift into a phantom pair
// delta. Minima cancel one-sided interference, and interleaving cancels
// thermal/frequency drift between the sides; what remains is the real
// effect, so thresholds encode tolerance for the instrument's true cost,
// not for measurement noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "gates":
			os.Exit(gatesMain())
		}
	}
	convertMain()
}

func convertMain() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	buf := marshalSnapshot(results)
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(results), *out)
}

// parseBench reads `go test -bench` output and returns its measurements,
// repeated ones merged (see mergeDuplicates).
func parseBench(in io.Reader) ([]Result, error) {
	results := []Result{} // non-nil so empty input marshals as [], not null
	pkg := ""
	scan := bufio.NewScanner(in)
	scan.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scan.Scan() {
		line := scan.Text()
		// `go test` prints a "pkg: <import path>" header per package;
		// qualify benchmark names with it so same-named benchmarks in
		// different packages stay distinct.
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		if r, ok := parseLine(line); ok {
			if pkg != "" {
				r.Name = pkg + "." + r.Name
			}
			results = append(results, r)
		}
	}
	return mergeDuplicates(results), scan.Err()
}

// marshalSnapshot renders a snapshot file.
func marshalSnapshot(results []Result) []byte {
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		panic(err) // a []Result always marshals
	}
	return append(buf, '\n')
}

// mergeDuplicates collapses repeated measurements of the same benchmark
// (`go test -count=N` emits one line per run) into a single entry that
// keeps the minimum ns/op, B/op, and allocs/op observed. Scheduler and
// co-tenant interference only ever slow a benchmark down, so the minimum
// is the robust estimator of its true cost — using it on both sides of a
// `compare` makes the regression gate far less sensitive to machine noise
// than a mean would be. The output is sorted by name, and with duplicates
// merged the sort is a total order, so two conversions of equivalent
// input produce byte-identical JSON.
func mergeDuplicates(in []Result) []Result {
	byName := make(map[string]*Result, len(in))
	order := []Result{}
	for _, r := range in {
		prev, ok := byName[r.Name]
		if !ok {
			order = append(order, r)
			byName[r.Name] = &order[len(order)-1]
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, r.NsPerOp)
		prev.BytesPerOp = min(prev.BytesPerOp, r.BytesPerOp)
		prev.AllocsPerOp = min(prev.AllocsPerOp, r.AllocsPerOp)
		prev.Iterations += r.Iterations
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })
	return order
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkLock/m=8-16    1000000    1234 ns/op    456 B/op    7 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
				seen = true
			}
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return r, seen
}

// compareMain implements `benchjson compare old.json new.json`: exit 0 if no
// benchmark regressed past the threshold, 1 on regression, 2 on usage or
// I/O errors. Benchmarks only present in one file are reported but never
// fail the gate (CI machines differ; the gate targets same-machine pairs).
func compareMain(argv []string) int {
	fs := flag.NewFlagSet("benchjson compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 15, "max allowed ns/op slowdown in percent")
	match := fs.String("match", "", "only compare benchmarks whose name matches this regexp")
	fs.Parse(argv)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson compare [-threshold pct] [-match regex] old.json new.json")
		return 2
	}
	var re *regexp.Regexp
	if *match != "" {
		var err error
		if re, err = regexp.Compile(*match); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson compare:", err)
			return 2
		}
	}
	old, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson compare:", err)
		return 2
	}
	cur, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson compare:", err)
		return 2
	}

	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions, compared := 0, 0
	for _, name := range names {
		if re != nil && !re.MatchString(name) {
			continue
		}
		o := old[name]
		n, ok := cur[name]
		if !ok {
			fmt.Printf("MISSING  %-60s (in old snapshot only)\n", name)
			continue
		}
		if o.NsPerOp <= 0 {
			continue
		}
		compared++
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		status := "ok"
		if delta > *threshold {
			status = "REGRESSED"
			regressions++
		}
		fmt.Printf("%-9s %-60s %12.1f -> %12.1f ns/op  (%+.1f%%)\n", status, name, o.NsPerOp, n.NsPerOp, delta)
	}
	for name := range cur {
		if _, ok := old[name]; !ok && (re == nil || re.MatchString(name)) {
			fmt.Printf("NEW      %-60s %12.1f ns/op\n", name, cur[name].NsPerOp)
		}
	}
	fmt.Printf("compared %d benchmarks, %d regression(s) past %+.1f%%\n", compared, regressions, *threshold)
	if regressions > 0 {
		return 1
	}
	return 0
}

func loadSnapshot(path string) (map[string]Result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []Result
	if err := json.Unmarshal(buf, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return byName(list), nil
}

// byName indexes a snapshot. Later entries win, matching mergeDuplicates'
// "one entry per name" contract for snapshots written by this tool.
func byName(list []Result) map[string]Result {
	m := make(map[string]Result, len(list))
	for _, r := range list {
		m[r.Name] = r
	}
	return m
}

// lookupResult resolves a benchmark by exact name, falling back to a unique
// suffix match over the pkg-qualified snapshot names. Both passes are also
// tried with any `-N` GOMAXPROCS suffix stripped from the snapshot names:
// `go test` appends `-GOMAXPROCS` to every benchmark when it is not 1, and
// the pair-gate table spells names without it so they stay portable across
// runner core counts.
func lookupResult(snap map[string]Result, name string) (Result, error) {
	if r, ok := snap[name]; ok {
		return r, nil
	}
	var exact, suffix []Result
	for n, r := range snap {
		if trimProcs(n) == name {
			exact = append(exact, r)
		} else if strings.HasSuffix(n, name) || strings.HasSuffix(trimProcs(n), name) {
			suffix = append(suffix, r)
		}
	}
	found := exact
	if len(found) == 0 {
		found = suffix
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		return Result{}, fmt.Errorf("benchmark %q not in snapshot", name)
	default:
		return Result{}, fmt.Errorf("benchmark %q is ambiguous (%d suffix matches)", name, len(found))
	}
}

// trimProcs removes a trailing `-N` (all digits) GOMAXPROCS qualifier from a
// benchmark name; names without one are returned unchanged. `8g-4c`-style
// sub-benchmark labels survive because their tail is not all digits.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
