// Command experiments regenerates every figure and analytical claim of the
// paper (see EXPERIMENTS.md for the index):
//
//	experiments fig2      — the running example: schedule + queue table (E1, E2)
//	experiments fig3      — s-oblivious vs s-aware pi-blocking (E3)
//	experiments thm1      — Theorem 1: reader acquisition bound sweep (E4)
//	experiments thm2      — Theorem 2: writer acquisition bound sweep (E5)
//	experiments piblock   — pi-blocking bounds, spin and donation (E7, E8)
//	experiments compare   — protocol comparison across read ratios (headline)
//	experiments ablation  — placeholders / mixing / upgrades / incremental (E9–E12)
//	experiments all       — everything above
//
// All runs are seeded and deterministic.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"

	"github.com/rtsync/rwrnlp/internal/analysis"
	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/obs"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/sim"
	"github.com/rtsync/rwrnlp/internal/simtime"
	"github.com/rtsync/rwrnlp/internal/stats"
	"github.com/rtsync/rwrnlp/internal/workload"
)

var (
	seeds    = flag.Int("seeds", 20, "random workloads per configuration")
	horizon  = flag.Int64("horizon", 500_000_000, "simulation horizon (ns)")
	metricsF = flag.Bool("metrics", false, "aggregate protocol metrics across all runs and print the snapshot")
	traceOut = flag.String("trace-out", "", "write the Fig. 2 running example as Perfetto trace-event JSON (fig2 only)")
	httpAddr = flag.String("http", "", "serve the aggregated metrics debug endpoint after the experiments")
)

// Suite-wide observability state: one metrics registry and the sink feeding
// it, shared by every run (when -metrics is set), and the aggregated verdict
// of the per-run Theorem 1/2 bound monitors that run() attaches
// unconditionally.
var (
	reg         *obs.Metrics
	regObs      *obs.ProtocolObserver
	boundRuns   int
	boundChecks int64
	boundSkips  int64
	boundViols  []string
)

func main() {
	flag.Parse()
	if *metricsF {
		reg = obs.NewMetrics()
		regObs = obs.NewProtocolObserver(reg)
	}
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	cmds := map[string]func(){
		"fig2": fig2, "fig3": fig3,
		"thm1": thm1, "thm2": thm2,
		"piblock": piblock, "compare": compare, "ablation": ablation,
		"control": control, "refined": refined, "clusters": clusters,
		"overheads": overheads,
	}
	if cmd == "all" {
		for _, name := range []string{"fig2", "fig3", "thm1", "thm2", "piblock", "compare", "ablation", "control", "refined", "clusters", "overheads"} {
			cmds[name]()
		}
		finish()
		return
	}
	f, ok := cmds[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		os.Exit(2)
	}
	f()
	finish()
}

// finish prints the suite-wide observability summaries and exits non-zero if
// any run violated its analytical bound.
func finish() {
	if reg != nil {
		fmt.Println("## Aggregated metrics (all runs, simulated ns)")
		fmt.Println()
		fmt.Print(reg.Snapshot().String())
		fmt.Println()
	}
	if boundRuns > 0 {
		fmt.Printf("## Bound monitor: %d RW-RNLP runs, %d satisfactions checked against Thm 1/2 (%d incremental skipped), %d violations\n",
			boundRuns, boundChecks, boundSkips, len(boundViols))
		for _, v := range boundViols {
			fmt.Println("  VIOLATION", v)
		}
		fmt.Println()
	}
	if *httpAddr != "" {
		fmt.Printf("serving debug endpoint on http://%s (/metrics, /healthz); Ctrl-C to stop\n", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, obs.NewDebugMux(obs.DebugMuxConfig{Metrics: reg})); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if len(boundViols) > 0 {
		os.Exit(1)
	}
}

// run executes one configuration with the suite's pipeline attached: the
// shared metrics sink (if -metrics) and — for RW-RNLP under a progress
// mechanism that establishes P1/P2 — an analytic Theorem 1/2 bound monitor
// using the system's overhead-inflated L^r/L^w. The E17 negative control
// (inheritance, bounds intentionally broken) bypasses run and calls sim.New
// directly.
func run(cfg sim.Config) *sim.Result {
	sinks := obs.Sinks{Metrics: regObs}
	if cfg.Protocol == sim.ProtoRWRNLP && cfg.Progress != sim.Inheritance {
		sinks.Bounds = obs.NewBoundMonitor(cfg.System.M)
		ib := analysis.BoundsOf(cfg.System).Inflate(cfg.Overheads.Invocation, cfg.Overheads.CtxSwitch)
		sinks.Bounds.SetAnalytic(int64(ib.Lr), int64(ib.Lw))
	}
	bm := sinks.Bounds
	cfg.Observers = append(cfg.Observers, obs.NewPipeline(sinks))
	s, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	res := s.Run()
	if len(res.Violations) > 0 {
		panic(fmt.Sprintf("invariant violations: %v", res.Violations[0]))
	}
	if bm != nil {
		rep := bm.Report()
		boundRuns++
		boundChecks += rep.Checked
		boundSkips += rep.SkippedIncremental
		for _, v := range rep.Violations {
			boundViols = append(boundViols, fmt.Sprintf("m=%d seed=%d: %s", cfg.System.M, cfg.Seed, v))
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// E1/E2: Fig. 2

func fig2() {
	fmt.Println("## E1/E2 — Fig. 2: the running example")
	fmt.Println()

	// Replay at the RSM level for the queue table.
	sb := core.NewSpecBuilder(3)
	if err := sb.DeclareReadGroup(0, 1); err != nil {
		panic(err)
	}
	m := core.NewRSM(sb.Build(), core.Options{})
	names := map[core.ReqID]string{}
	issue := func(at core.Time, label string, read, write []core.ResourceID) core.ReqID {
		id, err := m.Issue(at, read, write, nil)
		if err != nil {
			panic(err)
		}
		names[id] = label
		return id
	}
	queueRow := func(interval string) {
		row := func(qs core.QueueState, ids []core.ReqID) string {
			if len(ids) == 0 {
				return "∅"
			}
			s := "{"
			for i, id := range ids {
				if i > 0 {
					s += ", "
				}
				s += names[id]
			}
			return s + "}"
		}
		qa, qb := m.Queues(0), m.Queues(1)
		fmt.Printf("| %-9s | %-12s | %-12s | %-12s | %-12s |\n",
			interval, row(qa, qa.RQ), row(qa, qa.WQ), row(qb, qb.RQ), row(qb, qb.WQ))
	}

	fmt.Println("Queue states (Fig. 2(b); RQ(ℓa) corrected to include R5,1 — see EXPERIMENTS.md):")
	fmt.Println()
	fmt.Println("| interval  | RQ(ℓa)       | WQ(ℓa)       | RQ(ℓb)       | WQ(ℓb)       |")
	fmt.Println("|-----------|--------------|--------------|--------------|--------------|")
	w11 := issue(1, "R1,1w", nil, []core.ResourceID{0, 1})
	queueRow("[0,2)")
	w21 := issue(2, "R2,1w", nil, []core.ResourceID{0, 1, 2})
	r31 := issue(3, "R3,1r", []core.ResourceID{2}, nil)
	r41 := issue(4, "R4,1r", []core.ResourceID{2}, nil)
	must(m.Complete(5, w11))
	must(m.Complete(6, r41))
	queueRow("[2,7)")
	r51 := issue(7, "R5,1r", []core.ResourceID{0, 1}, nil)
	queueRow("[7,8)")
	must(m.Complete(8, r31))
	queueRow("[8,10)")
	must(m.Complete(10, w21))
	queueRow("[10,12]")
	must(m.Complete(12, r51))
	fmt.Println()

	// Full schedule through the simulator.
	var tb *obs.TraceBuilder
	var observers []core.Observer
	if *traceOut != "" {
		tb = obs.NewTraceBuilder()
		tb.TimeDiv = 1 // the running example is in logical ticks
		observers = append(observers, tb)
	}
	res := run(sim.Config{
		System: workload.Fig2System(), Policy: sched.EDF, Progress: sim.SpinNP,
		Protocol: sim.ProtoRWRNLP, Horizon: 12, JobsPerTask: 1,
		CheckInvariants: true, RecordRequests: true, RecordSchedule: true,
		Observers: observers,
	})
	if tb != nil {
		tb.AddSchedule(res.Schedule)
		f, err := os.Create(*traceOut)
		if err != nil {
			panic(err)
		}
		if _, err := tb.WriteTo(f); err != nil {
			panic(err)
		}
		f.Close()
		fmt.Printf("wrote Fig. 2 trace to %s (open in ui.perfetto.dev)\n\n", *traceOut)
	}
	fmt.Println("Simulated schedule (issue → satisfied → complete):")
	fmt.Println()
	fmt.Println("| request | issued | acquisition delay | CS    | satisfied | completes |")
	fmt.Println("|---------|--------|-------------------|-------|-----------|-----------|")
	for _, r := range res.Requests {
		sat := r.Issue + r.Acq
		fmt.Printf("| T%d      | t=%-4d | %-17d | %-5d | t=%-7d | t=%-7d |\n",
			r.Task, r.Issue, r.Acq, r.CS, sat, sat+r.CS)
	}
	fmt.Printf("\nPaper schedule: R2,1 satisfied at t=8 (waited 6), R5,1 at t=10 (waited 3); all others immediate. ✓\n\n")
	fmt.Println("Gantt (5 CPUs, t=0..12; letters=CS of task A..E ↔ T1..T5, ~=spin):")
	fmt.Println()
	fmt.Print(sim.RenderGantt(res, 24))
	fmt.Println()
	fig2Variants()
}

// fig2Variants replays the Sec. 3.4 and Sec. 3.5 worked variants of the
// running example at the RSM level.
func fig2Variants() {
	mkRSM := func(opt core.Options) *core.RSM {
		sb := core.NewSpecBuilder(3)
		if err := sb.DeclareReadGroup(0, 1); err != nil {
			panic(err)
		}
		return core.NewRSM(sb.Build(), opt)
	}

	fmt.Println("Variant (Sec. 3.4, placeholders): N1,1={ℓb}, N2,1={ℓa,ℓc} —")
	m := mkRSM(core.Options{Placeholders: true})
	w11, err := m.Issue(1, nil, []core.ResourceID{1}, nil)
	must(err2(w11, err))
	w21, err := m.Issue(2, nil, []core.ResourceID{0, 2}, nil)
	must(err2(w21, err))
	st, _ := m.State(w21)
	fmt.Printf("  R2,1 at t=2: %s (paper: satisfied immediately — placeholders add concurrency) ✓\n", st)
	must(m.Complete(3, w11))
	must(m.Complete(4, w21))

	fmt.Println("Variant (Sec. 3.5, mixing): R2,1 reads {ℓa,ℓb}, writes {ℓc} —")
	mm := mkRSM(core.Options{})
	mw11, _ := mm.Issue(1, nil, []core.ResourceID{0, 1}, nil)
	mw21, _ := mm.Issue(2, []core.ResourceID{0, 1}, []core.ResourceID{2}, nil)
	r31, _ := mm.Issue(3, []core.ResourceID{2}, nil, nil)
	r41, _ := mm.Issue(4, []core.ResourceID{2}, nil, nil)
	must(mm.Complete(5, mw11))
	must(mm.Complete(6, r41))
	r51, _ := mm.Issue(7, []core.ResourceID{0, 1}, nil, nil)
	st, _ = mm.State(r51)
	fmt.Printf("  R5,1 at t=7: %s (paper: satisfied immediately — no conflict with the mixed R2,1) ✓\n", st)
	must(mm.Complete(8, r31))
	must(mm.Complete(10, mw21))
	must(mm.Complete(12, r51))
	fmt.Println()
}

func err2(_ core.ReqID, err error) error { return err }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------------
// E3: Fig. 3

func fig3() {
	fmt.Println("## E3 — Fig. 3: s-oblivious vs s-aware pi-blocking")
	fmt.Println()
	res := run(sim.Config{
		System: workload.Fig3System(), Policy: sched.EDF, Progress: sim.Donation,
		Protocol: sim.ProtoRWRNLP, Horizon: 100, JobsPerTask: 1,
		CheckInvariants: true, RecordRequests: true,
	})
	fmt.Println("| job | s-oblivious pi-blocking | s-aware pi-blocking |")
	fmt.Println("|-----|-------------------------|---------------------|")
	labels := []string{"J2 (holds lock [1,4))", "J1 (suspended [2,4))", "J3 (waits [3,5))"}
	for i, ts := range res.Tasks {
		fmt.Printf("| %-21s | %-23d | %-19d |\n", labels[i], ts.MaxPiSOb, ts.MaxPiSAw)
	}
	fmt.Println()
	fmt.Println("J3's wait while two higher-priority jobs are *pending* is invisible to")
	fmt.Println("s-oblivious analysis (paper: \"J3 is not s-oblivious pi-blocked\") but")
	fmt.Println("counts as s-aware pi-blocking — the Fig. 3 distinction. ✓")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// E4/E5: Theorems 1 and 2

func theoremSweep(write bool) {
	kind, thm := "read", "Theorem 1: L^r + L^w (constant in m)"
	if write {
		kind, thm = "write", "Theorem 2: (m−1)(L^r + L^w) (linear in m)"
	}
	fmt.Printf("## %s — worst-case %s acquisition delay vs. bound\n\n", thm, kind)
	fmt.Println("| m  | progress | max observed (µs) | bound (µs) | observed/bound | samples |")
	fmt.Println("|----|----------|-------------------|------------|----------------|---------|")
	for _, m := range []int{2, 4, 8, 16} {
		for _, prog := range []sim.Progress{sim.SpinNP, sim.Donation} {
			var maxObs, bound simtime.Time
			n := 0
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				p := workload.Params{
					M: m, NumTasks: 3 * m, Util: workload.UtilUniformLight,
					NumResources: 6, AccessProb: 1, ReqPerJob: 3,
					NestedProb: 0.5, ReadRatio: 0.5,
					CSMin: 50_000, CSMax: 500_000,
				}
				sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
				b := analysis.BoundsOf(sys)
				res := run(sim.Config{
					System: sys, Policy: sched.EDF, Progress: prog,
					Protocol: sim.ProtoRWRNLP, Horizon: simtime.Time(*horizon), Seed: seed,
					CheckInvariants: true,
				})
				var obs, bd simtime.Time
				if write {
					obs, bd = res.MaxWriteAcq, b.WriteAcq()
					n += res.NumWriteAcq
				} else {
					obs, bd = res.MaxReadAcq, b.ReadAcq()
					n += res.NumReadAcq
				}
				if obs > maxObs {
					maxObs = obs
				}
				if bd > bound {
					bound = bd
				}
				if obs > bd {
					panic(fmt.Sprintf("BOUND VIOLATED: m=%d seed=%d obs=%d bound=%d", m, seed, obs, bd))
				}
			}
			fmt.Printf("| %-2d | %-8s | %-17.1f | %-10.1f | %-14s | %-7d |\n",
				m, prog, float64(maxObs)/1000, float64(bound)/1000,
				stats.Ratio(float64(maxObs), float64(bound)), n)
		}
	}
	fmt.Println()
}

func thm1() { theoremSweep(false) }
func thm2() { theoremSweep(true) }

// ---------------------------------------------------------------------------
// E7/E8: pi-blocking bounds

func piblock() {
	fmt.Println("## E7/E8 — per-job pi-blocking vs. O(m) bound")
	fmt.Println()
	fmt.Println("| m  | progress | metric       | max observed (µs) | bound (µs) |")
	fmt.Println("|----|----------|--------------|-------------------|------------|")
	for _, m := range []int{2, 4, 8} {
		for _, prog := range []sim.Progress{sim.SpinNP, sim.Donation} {
			var maxObs, bound simtime.Time
			metric := "Def.1 (spin)"
			if prog == sim.Donation {
				metric = "s-oblivious"
			}
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				p := workload.Params{
					M: m, NumTasks: 3 * m, Util: workload.UtilUniformLight,
					NumResources: 6, AccessProb: 1, ReqPerJob: 3,
					NestedProb: 0.5, ReadRatio: 0.5,
					CSMin: 50_000, CSMax: 500_000,
				}
				sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
				b := analysis.BoundsOf(sys)
				res := run(sim.Config{
					System: sys, Policy: sched.EDF, Progress: prog,
					Protocol: sim.ProtoRWRNLP, Horizon: simtime.Time(*horizon), Seed: seed,
				})
				var obs simtime.Time
				if prog == sim.SpinNP {
					obs = res.MaxPiSpin
				} else {
					obs = res.MaxPiSOb
				}
				if obs > maxObs {
					maxObs = obs
				}
				if b.RequestSpan() > bound {
					bound = b.RequestSpan()
				}
				if obs > b.RequestSpan() {
					panic(fmt.Sprintf("PI-BLOCKING BOUND VIOLATED: m=%d seed=%d obs=%d bound=%d", m, seed, obs, b.RequestSpan()))
				}
			}
			fmt.Printf("| %-2d | %-8s | %-12s | %-17.1f | %-10.1f |\n",
				m, prog, metric, float64(maxObs)/1000, float64(bound)/1000)
		}
	}
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Headline comparison: protocols across read ratios

func compare() {
	fmt.Println("## Protocol comparison — reader/writer blocking and concurrency")
	fmt.Println()
	protos := []sim.Protocol{sim.ProtoRWRNLP, sim.ProtoMutexRNLP, sim.ProtoGroupPF, sim.ProtoGroupMutex}
	for _, rr := range []float64{0.1, 0.5, 0.9} {
		fmt.Printf("Read ratio %.0f%% (m=8, spin):\n\n", rr*100)
		fmt.Println("| protocol    | max read acq (µs) | mean read acq | max write acq (µs) | CS parallelism |")
		fmt.Println("|-------------|-------------------|---------------|--------------------|----------------|")
		for _, proto := range protos {
			var maxR, maxW simtime.Time
			var sumMeanR, sumPar float64
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				p := workload.Params{
					M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
					NumResources: 8, AccessProb: 1, ReqPerJob: 3,
					NestedProb: 0.5, ReadRatio: rr,
					CSMin: 50_000, CSMax: 500_000,
				}
				sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
				res := run(sim.Config{
					System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
					Protocol: proto, RSM: core.Options{Placeholders: true},
					Horizon: simtime.Time(*horizon), Seed: seed,
				})
				if res.MaxReadAcq > maxR {
					maxR = res.MaxReadAcq
				}
				if res.MaxWriteAcq > maxW {
					maxW = res.MaxWriteAcq
				}
				sumMeanR += res.MeanReadAcq()
				sumPar += res.CSParallelism
			}
			n := float64(*seeds)
			fmt.Printf("| %-11s | %-17.1f | %-13.1f | %-18.1f | %-14.3f |\n",
				proto, float64(maxR)/1000, sumMeanR/n/1000, float64(maxW)/1000, sumPar/n)
		}
		fmt.Println()
	}
	fmt.Println("Expected shape: the R/W RNLP keeps reader blocking low (readers share);")
	fmt.Println("the mutex RNLP charges read requests the full writer price; group")
	fmt.Println("locking loses CS parallelism (≈1.0 = serialized).")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// E9–E12: ablations

func ablation() {
	fmt.Println("## E9 — Sec. 3.4 ablation: expanded writes vs placeholders")
	fmt.Println()
	fmt.Println("| variant      | mean write acq (µs) | max write acq (µs) | CS parallelism |")
	fmt.Println("|--------------|---------------------|--------------------|----------------|")
	for _, ph := range []bool{false, true} {
		name := "expanded"
		if ph {
			name = "placeholders"
		}
		var sumMean, sumPar float64
		var maxW simtime.Time
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 1, ReqPerJob: 3,
				NestedProb: 0.6, ReadRatio: 0.5,
				CSMin: 50_000, CSMax: 500_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			res := run(sim.Config{
				System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
				Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: ph},
				Horizon: simtime.Time(*horizon), Seed: seed,
			})
			sumMean += res.MeanWriteAcq()
			sumPar += res.CSParallelism
			if res.MaxWriteAcq > maxW {
				maxW = res.MaxWriteAcq
			}
		}
		n := float64(*seeds)
		fmt.Printf("| %-12s | %-19.1f | %-18.1f | %-14.3f |\n",
			name, sumMean/n/1000, float64(maxW)/1000, sumPar/n)
	}
	fmt.Println()
	fmt.Println("Placeholders keep the same worst case but improve average concurrency")
	fmt.Println("(Sec. 3.4: 'allows for additional concurrency ... not reflected in the")
	fmt.Println("worst-case blocking bounds').")
	fmt.Println()

	fmt.Println("## E10 — Sec. 3.5 ablation: R/W mixing")
	fmt.Println()
	fmt.Println("| variant      | mean read acq (µs) | CS parallelism |")
	fmt.Println("|--------------|--------------------|----------------|")
	for _, mixed := range []float64{0, 0.6} {
		name := "pure writes"
		if mixed > 0 {
			name = "mixed (60%)"
		}
		var sumMean, sumPar float64
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 1, ReqPerJob: 3,
				NestedProb: 0.8, ReadRatio: 0.4, MixedProb: mixed,
				CSMin: 50_000, CSMax: 500_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			res := run(sim.Config{
				System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
				Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
				Horizon: simtime.Time(*horizon), Seed: seed,
			})
			sumMean += res.MeanReadAcq()
			sumPar += res.CSParallelism
		}
		n := float64(*seeds)
		fmt.Printf("| %-12s | %-18.1f | %-14.3f |\n", name, sumMean/n/1000, sumPar/n)
	}
	fmt.Println()

	fmt.Println("## E11 — Sec. 3.6 ablation: upgradeable vs pessimistic write")
	fmt.Println()
	fmt.Println("(RW-RNLP supports upgrades natively; baselines pessimistically write-lock.)")
	fmt.Println()
	fmt.Println("| protocol    | mean acq of upgrade/req (µs) | CS parallelism |")
	fmt.Println("|-------------|------------------------------|----------------|")
	for _, proto := range []sim.Protocol{sim.ProtoRWRNLP, sim.ProtoMutexRNLP} {
		var sumAcq, sumPar float64
		var nAcq int
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 1, ReqPerJob: 2,
				NestedProb: 0.3, ReadRatio: 0.7, UpgradeProb: 1.0,
				CSMin: 50_000, CSMax: 500_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			res := run(sim.Config{
				System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
				Protocol: proto, RSM: core.Options{Placeholders: true},
				Horizon: simtime.Time(*horizon), Seed: seed, RecordRequests: true,
			})
			for _, r := range res.Requests {
				if r.Upgrade {
					sumAcq += float64(r.Acq)
					nAcq++
				}
			}
			sumPar += res.CSParallelism
		}
		mean := 0.0
		if nAcq > 0 {
			mean = sumAcq / float64(nAcq)
		}
		fmt.Printf("| %-11s | %-28.1f | %-14.3f |\n", proto, mean/1000, sumPar/float64(*seeds))
	}
	fmt.Println()

	fmt.Println("## E12 — Sec. 3.7: incremental locking total delay within single-shot bound")
	fmt.Println()
	var maxInc, bound simtime.Time
	var cnt int
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		p := workload.Params{
			M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
			NumResources: 8, AccessProb: 1, ReqPerJob: 2,
			NestedProb: 0.9, ReadRatio: 0.3, IncrementalProb: 1.0,
			CSMin: 50_000, CSMax: 500_000,
		}
		sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
		b := analysis.BoundsOf(sys)
		res := run(sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, Horizon: simtime.Time(*horizon), Seed: seed,
			RecordRequests: true,
		})
		for _, r := range res.Requests {
			if r.Incr {
				cnt++
				if r.Acq > maxInc {
					maxInc = r.Acq
				}
				if r.Acq > b.WriteAcq() {
					panic("incremental cumulative delay exceeded single-shot bound")
				}
			}
		}
		if b.WriteAcq() > bound {
			bound = b.WriteAcq()
		}
	}
	fmt.Printf("incremental requests: %d; max cumulative acquisition delay %.1fµs ≤ single-shot bound %.1fµs ✓\n\n",
		cnt, float64(maxInc)/1000, float64(bound)/1000)
}

// ---------------------------------------------------------------------------
// E17: negative control — progress mechanisms matter

// control demonstrates that the paper's bounds rest on Properties P1/P2:
// plain priority inheritance (no issuance gate, no donors) violates P2 and
// loses the s-blocking guarantees, while Rule S1 and priority donation keep
// every invariant and every bound.
func control() {
	fmt.Println("## E17 — negative control: progress mechanisms matter")
	fmt.Println()
	fmt.Println("| progress    | P1/P2 violations | read-bound exceedances | write-bound exceedances |")
	fmt.Println("|-------------|------------------|------------------------|-------------------------|")
	for _, prog := range []sim.Progress{sim.SpinNP, sim.Donation, sim.Inheritance} {
		viol, rex, wex := 0, 0, 0
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 2, NumTasks: 10, Util: workload.UtilUniformMedium,
				NumResources: 4, AccessProb: 1, ReqPerJob: 3,
				NestedProb: 0.6, ReadRatio: 0.5,
				CSMin: 100_000, CSMax: 800_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			b := analysis.BoundsOf(sys)
			s, err := sim.New(sim.Config{
				System: sys, Policy: sched.EDF, Progress: prog,
				Protocol: sim.ProtoRWRNLP, Horizon: simtime.Time(*horizon), Seed: seed,
				CheckInvariants: true,
			})
			if err != nil {
				panic(err)
			}
			res := s.Run()
			viol += len(res.Violations)
			if res.MaxReadAcq > b.ReadAcq() {
				rex++
			}
			if res.MaxWriteAcq > b.WriteAcq() {
				wex++
			}
		}
		fmt.Printf("| %-11s | %-16d | %-22d | %-23d |\n", prog, viol, rex, wex)
	}
	fmt.Println()
	fmt.Println("Rule S1 and priority donation establish P1/P2 (Lemmas 1, 7) and keep the")
	fmt.Println("Theorem 1/2 bounds; plain inheritance establishes neither — exactly why the")
	fmt.Println("paper pairs the RSM with a *proper* progress mechanism.")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// E18: refined conflict-aware analysis (the paper's named future work)

// refined compares the coarse Theorem-2 bounds against the conflict-aware
// refinement of internal/analysis/refined.go on sparse and dense sharing
// graphs, and validates the refinement's admissions by simulation.
func refined() {
	fmt.Println("## E18 — refined conflict-aware bounds (paper future work)")
	fmt.Println()
	fmt.Println("| sharing | U/m  | coarse rw-rnlp | refined rw-rnlp | simulated misses (refined-admitted) |")
	fmt.Println("|---------|------|----------------|-----------------|--------------------------------------|")
	for _, sparse := range []bool{false, true} {
		name, q, nested := "dense", 8, 0.4
		if sparse {
			name, q, nested = "sparse", 24, 0.1
		}
		for _, frac := range []float64{0.4, 0.5} {
			coarseOK, refinedOK, misses, simmed := 0, 0, 0, 0
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				sys := workload.Generate(rng, workload.Params{
					M: 8, TotalUtil: frac * 8, Util: workload.UtilUniformLight,
					NumResources: q, AccessProb: 0.8, ReqPerJob: 2,
					NestedProb: nested, ReadRatio: 0.8,
					CSMin: 10_000, CSMax: 100_000, WriteCSScale: 0.25,
				})
				a := analysis.NewAnalyzer(sys, sim.ProtoRWRNLP, sim.SpinNP)
				ra := analysis.NewRefinedAnalyzer(sys, sim.SpinNP)
				c, r := a.SchedulableGEDF(), ra.SchedulableGEDFRefined()
				if c {
					coarseOK++
				}
				if r {
					refinedOK++
				}
				if r && !c && simmed < 5 {
					// Soundness: simulate refined-only admissions.
					simmed++
					res := run(sim.Config{
						System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
						Protocol: sim.ProtoRWRNLP, Horizon: simtime.Time(*horizon), Seed: seed,
					})
					misses += res.Misses
				}
			}
			n := float64(*seeds)
			fmt.Printf("| %-7s | %.2f | %-14.2f | %-15.2f | %-36d |\n",
				name, frac, float64(coarseOK)/n, float64(refinedOK)/n, misses)
		}
	}
	fmt.Println()
	fmt.Println("Refined ≥ coarse always (monotone); the admissions it adds miss no")
	fmt.Println("deadlines in simulation. On sparse sharing the refinement separates")
	fmt.Println("fine-grained locking from the coarse worst-case analysis entirely.")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Clustered scheduling sweep: partitioned (c=1) … global (c=m)

// clusters sweeps the cluster size under the suspension-based variant: the
// paper's model covers the whole spectrum (Sec. 2), and the donation
// mechanism's per-job pi-blocking depends on c through the "top-c pending"
// gate. Acquisition bounds are cluster-independent (the RSM does not see
// clusters); pi-blocking shifts with c.
func clusters() {
	fmt.Println("## Clustered scheduling sweep (m=8, donation, EDF)")
	fmt.Println()
	fmt.Println("| c | scheduling  | max read acq (µs) | max write acq (µs) | max s-oblivious pi (µs) | misses |")
	fmt.Println("|---|-------------|-------------------|--------------------|-------------------------|--------|")
	for _, c := range []int{1, 2, 4, 8} {
		name := "clustered"
		switch c {
		case 1:
			name = "partitioned"
		case 8:
			name = "global"
		}
		var maxR, maxW, maxPi simtime.Time
		misses := 0
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 8, ClusterSize: c, NumTasks: 24, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 1, ReqPerJob: 3,
				NestedProb: 0.5, ReadRatio: 0.5,
				CSMin: 50_000, CSMax: 500_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			b := analysis.BoundsOf(sys)
			res := run(sim.Config{
				System: sys, Policy: sched.EDF, Progress: sim.Donation,
				Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
				Horizon: simtime.Time(*horizon), Seed: seed,
				CheckInvariants: true,
			})
			if res.MaxReadAcq > b.ReadAcq() || res.MaxWriteAcq > b.WriteAcq() {
				panic("acquisition bound violated in clustered config")
			}
			if res.MaxReadAcq > maxR {
				maxR = res.MaxReadAcq
			}
			if res.MaxWriteAcq > maxW {
				maxW = res.MaxWriteAcq
			}
			if res.MaxPiSOb > maxPi {
				maxPi = res.MaxPiSOb
			}
			misses += res.Misses
		}
		fmt.Printf("| %d | %-11s | %-17.1f | %-18.1f | %-23.1f | %-6d |\n",
			c, name, float64(maxR)/1000, float64(maxW)/1000, float64(maxPi)/1000, misses)
	}
	fmt.Println()
	fmt.Println("Acquisition delays are cluster-independent (RSM-level, bounds asserted);")
	fmt.Println("pi-blocking varies with c through the donation gate. Partitioned runs may")
	fmt.Println("miss deadlines at higher load (bin imbalance), global ones absorb it.")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Overhead sensitivity (Sec. 2: "overheads … can be factored into the final
// analysis")

// overheads sweeps protocol-invocation and context-switch costs and checks
// the overhead-inflated Theorem bounds.
func overheads() {
	fmt.Println("## Overhead sensitivity (m=8, spin, R/W RNLP)")
	fmt.Println()
	fmt.Println("| invocation (µs) | ctx switch (µs) | max read acq (µs) | inflated Thm-1 bound (µs) | max write acq (µs) |")
	fmt.Println("|-----------------|-----------------|-------------------|---------------------------|--------------------|")
	for _, ov := range []struct{ inv, ctx simtime.Time }{
		{0, 0}, {1_000, 2_000}, {10_000, 20_000},
	} {
		var maxR, maxW, bound simtime.Time
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			p := workload.Params{
				M: 8, NumTasks: 24, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 1, ReqPerJob: 3,
				NestedProb: 0.5, ReadRatio: 0.5,
				CSMin: 50_000, CSMax: 500_000,
			}
			sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
			b := analysis.BoundsOf(sys).Inflate(ov.inv, ov.ctx)
			res := run(sim.Config{
				System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
				Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
				Overheads: sim.Overheads{Invocation: ov.inv, CtxSwitch: ov.ctx},
				Horizon:   simtime.Time(*horizon), Seed: seed,
				CheckInvariants: true,
			})
			if res.MaxReadAcq > b.ReadAcq() || res.MaxWriteAcq > b.WriteAcq() {
				panic("overhead-inflated bound violated")
			}
			if res.MaxReadAcq > maxR {
				maxR = res.MaxReadAcq
			}
			if res.MaxWriteAcq > maxW {
				maxW = res.MaxWriteAcq
			}
			if b.ReadAcq() > bound {
				bound = b.ReadAcq()
			}
		}
		fmt.Printf("| %-15.0f | %-15.0f | %-17.1f | %-25.1f | %-18.1f |\n",
			float64(ov.inv)/1000, float64(ov.ctx)/1000,
			float64(maxR)/1000, float64(bound)/1000, float64(maxW)/1000)
	}
	fmt.Println()
	fmt.Println("Delays grow with the charged overheads and stay within the bounds computed")
	fmt.Println("from overhead-inflated CS lengths (analysis.Bounds.Inflate) — the paper's")
	fmt.Println(`"factored into the final analysis" recipe, executed.`)
	fmt.Println()
}
