// Command rnlpsim runs one discrete-event simulation of a random sporadic
// task system under a chosen locking protocol and progress mechanism, and
// prints blocking/response statistics. It is the interactive entry point to
// the simulator; cmd/experiments drives the full reproduction suites.
//
// Example:
//
//	rnlpsim -m 8 -tasks 24 -protocol rw-rnlp -progress spin -read-ratio 0.8 -seed 7
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
	"github.com/rtsync/rwrnlp/internal/taskmodel"
	"github.com/rtsync/rwrnlp/internal/workload"
)

func main() {
	var (
		m        = flag.Int("m", 8, "processors")
		c        = flag.Int("c", 0, "cluster size (0 = global)")
		tasks    = flag.Int("tasks", 24, "number of tasks")
		nres     = flag.Int("resources", 8, "number of resources")
		readR    = flag.Float64("read-ratio", 0.7, "fraction of read requests")
		nested   = flag.Float64("nested", 0.5, "probability of multi-resource requests")
		mixed    = flag.Float64("mixed", 0, "probability of mixed R/W requests")
		upgrades = flag.Float64("upgrades", 0, "probability a read is upgradeable")
		incr     = flag.Float64("incremental", 0, "probability a nested write is incremental")
		execVar  = flag.Float64("exec-var", 0, "per-job execution-time variation in [0,1)")
		ovInv    = flag.Int64("ov-invocation", 0, "protocol invocation overhead (ns)")
		ovCtx    = flag.Int64("ov-ctx", 0, "context-switch overhead (ns)")
		protoS   = flag.String("protocol", "rw-rnlp", "rw-rnlp | mutex-rnlp | group-pf | group-mutex | none")
		progS    = flag.String("progress", "spin", "spin | donation | inheritance")
		policyS  = flag.String("policy", "edf", "edf | fp")
		placeh   = flag.Bool("placeholders", true, "Sec. 3.4 placeholder optimization (rw-rnlp)")
		horizon  = flag.Int64("horizon", 1_000_000_000, "simulation horizon (ns)")
		seed     = flag.Int64("seed", 1, "random seed")
		sysFile  = flag.String("system", "", "load the task system from a JSON file instead of generating one")
		dump     = flag.String("dump-system", "", "write the generated task system to a JSON file and exit")
		report   = flag.Bool("analysis", false, "print the per-task blocking breakdown")
		gantt    = flag.Bool("gantt", false, "render an ASCII Gantt chart of the schedule")
		verbose  = flag.Bool("v", false, "print the per-request log")
		metricsF = flag.Bool("metrics", false, "collect protocol metrics and print the snapshot")
		traceOut = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON file (load in ui.perfetto.dev)")
		httpAddr = flag.String("http", "", "serve the metrics/bounds debug endpoint on this address after the run")
		attrTopK = flag.Int("attr", 0, "causal blocking attribution: keep the N worst blocking chains and print the report (0 = off)")
		flightN  = flag.Int("flight", 0, "flight recorder: ring capacity in events (0 = off)")
		flightO  = flag.String("flight-out", "", "write the flight-recorder dump (JSON) to this file after the run")
		wdogF    = flag.Bool("watchdog", false, "arm the stall watchdog (analytic envelope for rw-rnlp, observed otherwise)")
		wdSlack  = flag.Float64("watchdog-slack", obs.DefaultWatchdogSlack, "stall-watchdog envelope multiplier")
		tsF      = flag.Duration("timeseries", 0, "continuous telemetry: capture a metrics snapshot at this interval while -http serves (implies -metrics; 0 = off)")
	)
	flag.Parse()

	protos := map[string]sim.Protocol{
		"rw-rnlp": sim.ProtoRWRNLP, "mutex-rnlp": sim.ProtoMutexRNLP,
		"group-pf": sim.ProtoGroupPF, "group-mutex": sim.ProtoGroupMutex,
		"none": sim.ProtoNone,
	}
	proto, ok := protos[*protoS]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protoS)
		os.Exit(2)
	}
	prog := sim.SpinNP
	switch *progS {
	case "donation":
		prog = sim.Donation
	case "inheritance":
		prog = sim.Inheritance
	}
	policy := sched.EDF
	if *policyS == "fp" {
		policy = sched.FP
	}
	if *c == 0 {
		*c = *m
	}

	var sys *taskmodel.System
	if *sysFile != "" {
		f, err := os.Open(*sysFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sys, err = taskmodel.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*m, *c = sys.M, sys.ClusterSize
	} else {
		p := workload.Params{
			M: *m, ClusterSize: *c, NumTasks: *tasks,
			Util: workload.UtilUniformLight, NumResources: *nres,
			AccessProb: 1, ReqPerJob: 3,
			NestedProb: *nested, ReadRatio: *readR, MixedProb: *mixed,
			UpgradeProb: *upgrades, IncrementalProb: *incr,
			ExecVar: *execVar,
			CSMin:   50_000, CSMax: 500_000,
		}
		sys = workload.Generate(rand.New(rand.NewSource(*seed)), p)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sys.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *dump)
		return
	}
	b := analysis.BoundsOf(sys)

	// One observability pipeline over the run's event stream: flight
	// recorder, metrics, the online Theorem 1/2 bound monitor (analytic
	// envelope, overhead-inflated; only where the paper claims the bounds —
	// RW-RNLP under a P1/P2 progress mechanism), attribution, watchdog, and
	// the Perfetto trace builder riding along as its raw observer.
	bounded := proto == sim.ProtoRWRNLP && prog != sim.Inheritance
	ib := b.Inflate(simtime.Time(*ovInv), simtime.Time(*ovCtx))
	var sinks obs.Sinks
	if *flightN > 0 || *flightO != "" {
		sinks.Flight = obs.NewFlightRecorder(1, *flightN) // the simulator runs one RSM
	}
	fl := sinks.Flight
	var reg *obs.Metrics
	if *metricsF || *tsF > 0 {
		reg = obs.NewMetrics()
		sinks.Metrics = obs.NewProtocolObserver(reg)
	}
	if bounded {
		sinks.Bounds = obs.NewBoundMonitor(sys.M)
		sinks.Bounds.SetAnalytic(int64(ib.Lr), int64(ib.Lw))
	}
	bm := sinks.Bounds
	if *attrTopK > 0 {
		if reg == nil {
			reg = obs.NewMetrics()
		}
		sinks.Attribution = obs.NewAttributor(reg, *attrTopK)
	}
	attr := sinks.Attribution
	if *wdogF {
		sinks.Watchdog = obs.NewWatchdog(obs.WatchdogConfig{
			M: sys.M, Slack: *wdSlack, Flight: fl,
			OnStall: func(r obs.StallReport) {
				fmt.Fprintf(os.Stderr, "watchdog: %s\n", r)
			},
		})
		if bounded {
			sinks.Watchdog.SetAnalytic(int64(ib.Lr), int64(ib.Lw))
		}
	}
	wd := sinks.Watchdog
	pipe := obs.NewPipeline(sinks)
	var tb *obs.TraceBuilder
	if *traceOut != "" {
		tb = obs.NewTraceBuilder()
		pipe.Raw = tb
	}

	s, err := sim.New(sim.Config{
		System: sys, Policy: policy, Progress: prog, Protocol: proto,
		RSM:       core.Options{Placeholders: *placeh},
		Overheads: sim.Overheads{Invocation: simtime.Time(*ovInv), CtxSwitch: simtime.Time(*ovCtx)},
		Horizon:   simtime.Time(*horizon), Seed: *seed,
		CheckInvariants: true, RecordRequests: true,
		RecordSchedule: *gantt || tb != nil,
		Observers:      []core.Observer{pipe},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := s.Run()

	fmt.Printf("system: m=%d c=%d n=%d q=%d U=%.2f  L^r=%.1fµs L^w=%.1fµs\n",
		*m, *c, len(sys.Tasks), *nres, sys.Utilization(),
		float64(b.Lr)/1000, float64(b.Lw)/1000)
	fmt.Printf("config: protocol=%s progress=%s policy=%s placeholders=%v horizon=%.0fms seed=%d\n\n",
		proto, prog, policy, *placeh, float64(*horizon)/1e6, *seed)

	if len(res.Violations) > 0 {
		fmt.Printf("INVARIANT VIOLATIONS (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Println(" ", v)
		}
		os.Exit(1)
	}

	fmt.Printf("jobs: released=%d finished=%d deadline misses=%d\n", res.Jobs, res.Finished, res.Misses)
	fmt.Printf("CS parallelism: %.3f (utilization %.3f)\n\n", res.CSParallelism, res.CSUtilization)

	var reads, writes []simtime.Time
	for _, r := range res.Requests {
		if r.Write {
			writes = append(writes, r.Acq)
		} else {
			reads = append(reads, r.Acq)
		}
	}
	fmt.Printf("read  acquisition delay (ns): %s  [Thm 1 bound %d]\n", stats.Summarize(reads), b.ReadAcq())
	fmt.Printf("write acquisition delay (ns): %s  [Thm 2 bound %d]\n", stats.Summarize(writes), b.WriteAcq())
	fmt.Printf("\npi-blocking maxima (ns): spin(Def.1)=%d  s-oblivious=%d  s-aware=%d  s-blocking=%d\n",
		res.MaxPiSpin, res.MaxPiSOb, res.MaxPiSAw, res.MaxSBlock)

	a := analysis.NewAnalyzer(sys, proto, prog)
	fmt.Printf("\nschedulability (s-oblivious inflation): G-EDF=%v  P-EDF=%v  P-FP(RM)=%v\n",
		a.SchedulableGEDF(), a.SchedulablePEDF(), a.SchedulablePFP())
	if proto == sim.ProtoRWRNLP {
		ra := analysis.NewRefinedAnalyzer(sys, prog)
		fmt.Printf("refined (conflict-aware) G-EDF=%v\n", ra.SchedulableGEDFRefined())
	}

	if *report {
		fmt.Println("\nper-task blocking breakdown:")
		if err := a.Report(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	if *verbose {
		fmt.Println("\nper-request log:")
		for _, r := range res.Requests {
			kind := "R"
			if r.Write {
				kind = "W"
			}
			fmt.Printf("  T%-3d J%-4d %s issue=%-12d acq=%-10d cs=%d\n",
				r.Task, r.Job, kind, r.Issue, r.Acq, r.CS)
		}
	}
	if len(reads) > 0 {
		fmt.Println("\nread-delay histogram:")
		fmt.Print(stats.Histogram(reads, 8))
	}
	if *gantt {
		fmt.Println("\nschedule:")
		fmt.Print(sim.RenderGantt(res, 100))
	}

	if reg != nil {
		fmt.Println("\nmetrics snapshot (simulated ns):")
		fmt.Print(reg.Snapshot().String())
	}
	if attr != nil {
		fmt.Println()
		fmt.Print(attr.Report().String())
	}
	boundsOK := true
	if bm != nil {
		rep := bm.Report()
		fmt.Println()
		fmt.Print(rep.String())
		boundsOK = rep.Ok()
	}
	if wd != nil {
		fmt.Printf("\nstall watchdog: %d firing(s)\n", wd.Firings())
		for _, r := range wd.Reports() {
			fmt.Printf("  %s\n", r)
		}
		if wd.Firings() > 0 {
			boundsOK = false
		}
	}
	if fl != nil && *flightO != "" {
		f, err := os.Create(*flightO)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d := fl.Dump()
		if err := d.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote flight dump (%d records) to %s (render with cmd/flightdump)\n", len(d.Records), *flightO)
	}
	if tb != nil {
		tb.AddSchedule(res.Schedule)
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := tb.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote trace to %s (open in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
		if d := tb.DroppedRequests(); d > 0 {
			fmt.Printf("note: %d requests beyond the per-request track cap were rendered without lifecycle tracks\n", d)
		}
	}
	if *httpAddr != "" {
		var ts *obs.TimeSeries
		if *tsF > 0 && reg != nil {
			// The run is already over, so the ring mostly re-captures the final
			// cumulative snapshot; scrapes still get windowed views and the
			// endpoint shape is live for cockpit clients (rnlptop).
			ts = obs.NewTimeSeries(reg, *tsF, 0)
			ts.Start()
			defer ts.Stop()
		}
		cfg := obs.DebugMuxConfig{Metrics: reg, Bounds: bm, Flight: fl, Series: ts, Watchdogs: []*obs.Watchdog{wd}}
		if attr != nil {
			cfg.Attribution = attr.Report
		}
		fmt.Printf("\nserving debug endpoint on http://%s (/metrics, /bounds, /debug/rnlp/flight, /debug/rnlp/watchdog, /debug/rnlp/timeseries, /debug/rnlp/attr, /debug/pprof, /healthz); Ctrl-C to stop\n", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, obs.NewDebugMux(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !boundsOK {
		os.Exit(1)
	}
}
