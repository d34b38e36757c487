package harness

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestStreamSHAFollowsSeed(t *testing.T) {
	spec := WorkloadByName("lib_read_mostly").Stream
	a, b, c := StreamSHA(Generate(42, spec)), StreamSHA(Generate(42, spec)), StreamSHA(Generate(123, spec))
	if a != b {
		t.Errorf("same seed, different streams: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 42 and 123 gave the same stream %s", a)
	}
	bare, observed := WorkloadByName("lib_contended"), WorkloadByName("lib_contended_observed")
	if StreamSHA(Generate(42, bare.Stream)) != StreamSHA(Generate(42, observed.Stream)) {
		t.Error("lib_contended and lib_contended_observed must replay identical ops")
	}
}

func TestGeneratedFootprintsStayInsideOneComponent(t *testing.T) {
	for _, w := range Workloads {
		compOf := map[int]int{}
		for c, rs := range w.Stream.Components {
			for _, r := range rs {
				compOf[r] = c
			}
		}
		for _, ops := range Generate(7, w.Stream) {
			for _, op := range ops {
				fp := op.Footprint()
				if len(fp) < w.Stream.MinFoot || len(fp) > w.Stream.MaxFoot || !sort.IntsAreSorted(fp) {
					t.Fatalf("%s: bad footprint %v", w.Name, fp)
				}
				for i, r := range fp {
					if compOf[r] != compOf[fp[0]] || i > 0 && r == fp[i-1] {
						t.Fatalf("%s: footprint %v crosses components or repeats", w.Name, fp)
					}
				}
			}
		}
	}
}

func TestHistQuantilesAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return 1 + rng.Int63n(1_000_000) },
		"exponential": func() int64 { return 1 + int64(rng.ExpFloat64()*50_000) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 2_000_000 + rng.Int63n(500_000)
			}
			return 200 + rng.Int63n(100)
		},
		"small": func() int64 { return rng.Int63n(40) },
	}
	for name, draw := range dists {
		var h Hist
		samples := make([]int64, 100_000)
		for i := range samples {
			samples[i] = draw()
			h.Record(samples[i])
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			want := float64(samples[int(math.Ceil(q*float64(len(samples))))-1])
			got := h.Quantile(q)
			if diff := math.Abs(got - want); diff > 0.0625*want && diff > 1 {
				t.Errorf("%s q%v: hist %v, sorted %v", name, q, got, want)
			}
		}
		if h.Max() != samples[len(samples)-1] || h.Count() != uint64(len(samples)) {
			t.Errorf("%s: max/count %d/%d", name, h.Max(), h.Count())
		}
	}
}

func TestWitnessSeesOverlappingHolders(t *testing.T) {
	read := func(res int) *Op { return &Op{N: 1, Res: [3]int{res}} }
	write := func(res int) *Op { return &Op{Write: true, N: 1, Res: [3]int{res}} }
	w := newWitness(4)
	if v := w.enter(0, read(1)) + w.enter(1, read(1)) + w.enter(2, write(2)); v != 0 {
		t.Fatalf("compatible holders reported %d violations", v)
	}
	if w.enter(3, write(1)) == 0 {
		t.Error("a write entered beside two readers unnoticed")
	}
	if w.enter(4, read(2)) == 0 {
		t.Error("a read entered beside a writer unnoticed")
	}
	if w.enter(5, write(2)) == 0 {
		t.Error("a second writer entered unnoticed")
	}
	w.leave(0, read(1))
	w.leave(1, read(1))
	w.leave(3, write(1))
	if v := w.enter(0, write(1)); v != 0 {
		t.Errorf("resource 1 is free again, yet %d violations", v)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// pair [0,100) on track 0 with children acquire [0,60) and release
	// [60,100); the server side (track 1) saw handlers [10,40) and [70,90),
	// and a nested pair of overlapping children under acquire's handler.
	spans := []Span{
		{ID: 1, Name: "pair", Track: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "acquire", Track: 0, Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "release", Track: 0, Start: 60, End: 100},
		{ID: 4, Name: "handler", Track: 1, Start: 10, End: 40},
		{ID: 5, Name: "handler", Track: 1, Start: 70, End: 90},
		{ID: 6, Parent: 4, Name: "a", Track: 1, Start: 12, End: 20},
		{ID: 7, Parent: 4, Name: "b", Track: 1, Start: 18, End: 30},
	}
	NestByContainment(spans)
	if spans[3].Parent != 2 || spans[4].Parent != 3 {
		t.Fatalf("handlers nested under %d and %d, want 2 and 3", spans[3].Parent, spans[4].Parent)
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 0, 2: 30, 3: 20, 4: 12, 5: 20, 6: 8, 7: 12}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// benchmarkJSON is the committed BENCHMARK.json, as far as the tests read it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T, root string) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEveryWorkload runs every workload for three 300 ms windows,
// untraced and traced, and holds the command and BENCHMARK.json to each
// other: every listed name is emitted, finite, with the listed unit, and
// nothing is emitted that the file does not list.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	file := loadBenchmarkJSON(t, root)
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(file.Workloads), len(Workloads))
	}
	check := func(t *testing.T, res *Result, listed []struct{ Name, Unit string }) {
		t.Helper()
		if !res.Correct() || res.Attempted == 0 {
			t.Errorf("%d failed of %d attempted, %d violations", res.Failed, res.Attempted, res.Violations)
		}
		emitted := map[string]Metric{}
		for _, m := range res.Metrics {
			emitted[m.Name] = m
		}
		for _, l := range listed {
			m, ok := emitted[l.Name]
			switch {
			case !ok:
				t.Errorf("%s is in BENCHMARK.json but was not emitted", l.Name)
			case m.Unit != l.Unit:
				t.Errorf("%s: unit %q emitted, %q listed", l.Name, m.Unit, l.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s = %v", l.Name, m.Value)
			}
			delete(emitted, l.Name)
		}
		for name := range emitted {
			t.Errorf("%s was emitted but is not in BENCHMARK.json", name)
		}
	}
	env := &Env{Root: root}
	plan := Plan{Total: 900 * time.Millisecond, Quick: true}
	for i, w := range Workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q (or their why lines differ)", i, file.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := RunUntraced(env, &w, 42, plan)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, file.EndToEnd)
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, m.Value)
				}
			}
			res, err = RunTraced(env, &w, 42, plan, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, file.PerLayer)
			var trace struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			raw, err := os.ReadFile(res.TraceFile)
			if err == nil {
				err = json.Unmarshal(raw, &trace)
			}
			if err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace file %s: %v, %d events", res.TraceFile, err, len(trace.TraceEvents))
			}
		})
	}
}
