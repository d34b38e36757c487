// Command rnlpbench is the repository's benchmark: four closed-loop
// workloads, each run in a process of its own, printing every end-to-end
// metric by name and unit with tracing off, and — with -trace 1 — the
// per-layer cost ladder from core to client.
//
//	go run -C benchmark ./cmd/rnlpbench -seed 42              # two sets, A/A table
//	go run -C benchmark ./cmd/rnlpbench -seed 42 -trace 1     # plus the per-layer run
//	go run -C benchmark ./cmd/rnlpbench -workload lib_contended -seed 42 -seconds 24 -trace 0
//
// The last form is one run of one workload, the unit the acceptance driver
// invokes; its last line of output is the result as one JSON object. See
// ../../README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/rtsync/rwrnlp/benchmark/harness"
)

// procs is the harness's fixed parallelism: two Ps for the generator and
// two for a spawned daemon. Goroutines above that are the paper's tasks.
const procs = 2

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result as JSON")
		seed     = flag.Int64("seed", 42, "seed of the generated op streams")
		seconds  = flag.Float64("seconds", 24, "measured seconds per run (windows of 6 s)")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
		aa       = flag.Int("aa", 2, "without -workload: complete sets to run back to back and compare")
	)
	flag.Parse()
	if runtime.NumCPU() < procs {
		fatalf("needs %d CPUs, found %d", procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(procs)
	root, err := harness.FindRoot()
	if err != nil {
		fatalf("%v", err)
	}
	total := time.Duration(*seconds * float64(time.Second))
	if *workload != "" {
		os.Exit(runOne(root, *workload, *seed, total, *trace == 1))
	}
	os.Exit(runSets(root, *seed, *seconds, *trace == 1, *aa))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rnlpbench: "+format+"\n", args...)
	os.Exit(2)
}

// wireResult is the contract's result object.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of one workload in this process.
func runOne(root, name string, seed int64, total time.Duration, traced bool) int {
	w := harness.WorkloadByName(name)
	if w == nil {
		fatalf("unknown workload %q", name)
	}
	env := &harness.Env{Root: root}
	fmt.Printf("# %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d clients=%d (closed loop)\n",
		w.Name, seed, total.Seconds(), traced, procs, w.Stream.Clients)
	var res *harness.Result
	var err error
	if traced {
		res, err = harness.RunTraced(env, w, seed, harness.Plan{Total: total}, filepath.Join(root, "benchmark", "out"))
	} else {
		res, err = harness.RunUntraced(env, w, seed, harness.Plan{Total: total})
	}
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	out := wireResult{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, m := range res.Metrics {
		fmt.Printf("%-36s %16.4f %s\n", m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = wireMetric{m.Value, m.Unit}
	}
	fmt.Printf("%-36s %16.6f ratio (%d failed of %d attempted, %d witness violations)\n",
		"fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, res.Violations)
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	if res.TraceFile != "" {
		fmt.Println("# trace written to", res.TraceFile)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct() {
		return 1
	}
	return 0
}

// benchmarkFile is the part of BENCHMARK.json the A/A table needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one workload in a fresh process, echoing its output, and
// returns its result.
func child(name string, seed int64, seconds float64, traced bool) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&stdout, os.Stdout), os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res wireResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return &res, nil
}

// runSets runs n complete sets on the same binary and prints, per workload
// and end-to-end metric, each set's value, the spread (max−min)/median and
// whether it stays inside the bound BENCHMARK.json fixes for the metric.
func runSets(root string, seed int64, seconds float64, traced bool, n int) int {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	status := 0
	sets := make([]map[string]*wireResult, n)
	for s := range sets {
		sets[s] = map[string]*wireResult{}
		for _, w := range harness.Workloads {
			fmt.Printf("\n== set %d/%d ==\n", s+1, n)
			res, err := child(w.Name, seed, seconds, false)
			if err != nil {
				fatalf("%v", err)
			}
			if !res.Correct {
				status = 1
			}
			sets[s][w.Name] = res
		}
	}
	fmt.Printf("\n== A/A: %d sets, seed %d, same binary ==\n", n, seed)
	fmt.Printf("%-24s %-14s %s %9s %7s\n", "workload", "metric", strings.Repeat(fmt.Sprintf("%14s", "set"), n), "spread", "bound")
	for _, w := range harness.Workloads {
		for _, def := range bf.EndToEnd {
			vals := make([]float64, n)
			row := ""
			for s := range sets {
				vals[s] = sets[s][w.Name].Metrics[def.Name].Value
				row += fmt.Sprintf("%14.4f", vals[s])
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (hi - lo) / harness.Median(vals)
			verdict := "PASS"
			if spread > def.Bound {
				verdict, status = "FAIL", 1
			}
			fmt.Printf("%-24s %-14s %s %8.2f%% %6.0f%% %s\n", w.Name, def.Name, row, spread*100, def.Bound*100, verdict)
		}
		var failed, attempted uint64
		for s := range sets {
			failed += sets[s][w.Name].Failed
			attempted += sets[s][w.Name].Attempted
		}
		fmt.Printf("%-24s %-14s %d failed of %d attempted\n", w.Name, "fail_ratio", failed, attempted)
	}
	if traced {
		for _, w := range harness.Workloads {
			fmt.Printf("\n== traced: %s ==\n", w.Name)
			res, err := child(w.Name, seed, seconds, true)
			if err != nil {
				fatalf("%v", err)
			}
			if !res.Correct {
				status = 1
			}
		}
	}
	return status
}
