// Command benchjson runs the repository's same-run ablation pair gates —
// immune to cross-run machine drift — from the one table in gates.go:
//
//	benchjson gates
//
// samples each row's benchmarks, fails (exit 1) if any row's variant exceeds
// its base by more than the row's threshold percent (ns/op), and leaves
// <name>_pair.json behind for every failing row. Used by `make pair-gates`.
// It is one of the repo's two performance instruments; the other is the
// end-to-end acceptance benchmark (benchmark/, BENCHMARK.json).
//
// Pair-gate protocol: five separate `go test -count=1` invocations of the
// row's benchmarks, merged by MINIMUM ns/op, so each side of the pair is the
// min of five interleaved samples. This matters: a single-run pair on a
// shared machine routinely inverts (a 2026-08-06 single run recorded the
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
	"fmt"
	"io"
	"os"
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
	if len(os.Args) != 2 || os.Args[1] != "gates" {
		fmt.Fprintln(os.Stderr, "usage: benchjson gates")
		os.Exit(2)
	}
	os.Exit(gatesMain())
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

// marshalSnapshot renders the <name>_pair.json a failing row leaves behind.
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
// pair makes the gate far less sensitive to machine noise than a mean would
// be. The output is sorted by name, and with duplicates merged the sort is a
// total order, so two conversions of equivalent input produce byte-identical
// JSON.
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

// byName indexes a sampling. Later entries win; mergeDuplicates has already
// left one entry per name.
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
