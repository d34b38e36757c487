package obs_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/mc"
	"github.com/rtsync/rwrnlp/internal/obs"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/sim"
	"github.com/rtsync/rwrnlp/internal/workload"
)

// The lifecycle goldens under testdata/lifecycle_*.golden were captured at
// the commit BEFORE obs.Pipeline's one request table replaced the private
// pending maps of ProtocolObserver, BoundMonitor, Watchdog and Attributor:
// they are what those four and TimeSeries reported for these streams, each
// decoding the events for itself, and the pipeline must keep reproducing
// them byte for byte.
// Regenerate only for an intended change of a report:
// go test ./internal/obs -run LifecycleGolden -update-lifecycle.
var updateLifecycle = flag.Bool("update-lifecycle", false, "rewrite testdata/lifecycle_*.golden")

// record runs drive against a recording observer and returns the stream.
func record(t testing.TB, drive func(core.Observer)) []core.Event {
	t.Helper()
	var evs []core.Event
	drive(core.ObserverFunc(func(e core.Event) { evs = append(evs, e) }))
	if len(evs) == 0 {
		t.Fatal("stream is empty")
	}
	return evs
}

// fig2Stream is the paper's running example at the RSM level: a read phase,
// a writer entitled behind it, and a reader conceding to that writer.
func fig2Stream(t testing.TB) []core.Event {
	return record(t, func(o core.Observer) {
		rsm := core.NewRSM(core.NewSpecBuilder(2).Build(), core.Options{})
		rsm.SetObserver(o)
		var ids []core.ReqID
		issue := func(at core.Time, read, write []core.ResourceID, tag string) {
			id, err := rsm.Issue(at, read, write, tag)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		issue(1, []core.ResourceID{0}, nil, "A")
		issue(2, nil, []core.ResourceID{0}, "B")
		issue(3, []core.ResourceID{0}, nil, "C")
		for i, id := range ids {
			if err := rsm.Complete(core.Time(6+3*i), id); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// simStream is one seeded simulator run whose workload mixes plain,
// upgradeable (Sec. 3.6) and incremental (Sec. 3.7) requests.
func simStream(t testing.TB, seed int64) []core.Event {
	return record(t, func(o core.Observer) {
		sys := workload.Generate(rand.New(rand.NewSource(seed)), workload.Params{
			M: 4, ClusterSize: 4, NumTasks: 16,
			Util: workload.UtilUniformLight, NumResources: 4,
			AccessProb: 1, ReqPerJob: 3,
			NestedProb: 0.8, ReadRatio: 0.5,
			UpgradeProb: 0.4, IncrementalProb: 0.6,
			CSMin: 100_000, CSMax: 2_000_000,
		})
		s, err := sim.New(sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
			Horizon: 2_000_000_000, Seed: seed,
			Observers: []core.Observer{o},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
	})
}

// mcStream replays one recorded model-checker walk (a replay script under
// testdata, minted by a seeded random walk over an eight-template scenario).
func mcStream(t testing.TB, script string) []core.Event {
	return record(t, func(o core.Observer) {
		f, err := os.Open(filepath.Join("testdata", script))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc, path, err := mc.ParseReplay(f)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := mc.ReplayObserved(sc, path, o); err != nil || v != nil {
			t.Fatalf("replaying %s: violation %v, err %v", script, v, err)
		}
	})
}

// csMaxima returns the longest read and write critical sections of a stream
// (satisfy → complete / read-segment end), the scale the goldens' analytic
// envelopes are set against.
func csMaxima(evs []core.Event) (lr, lw int64) {
	start := map[core.ReqID]core.Time{}
	for _, e := range evs {
		switch e.Type {
		case core.EvSatisfied:
			start[e.Req] = e.T
		case core.EvCompleted, core.EvReadSegmentDone:
			if s, ok := start[e.Req]; ok {
				if d := int64(e.T - s); e.Kind == core.KindRead && d > lr {
					lr = d
				} else if e.Kind == core.KindWrite && d > lw {
					lw = d
				}
			}
		}
	}
	return lr, lw
}

// consumers is every lifecycle consumer of the observability plane over one
// registry: what a golden renders and what the equivalence test compares.
// Both modes of the bound monitor and of the watchdog are present; the
// analytic envelope is a quarter of the stream's own CS maxima and the observed-mode
// watchdog runs at slack 1/4, so violations and stalls do occur.
type consumers struct {
	reg      *obs.Metrics
	fl       *obs.FlightRecorder
	bmA, bmO *obs.BoundMonitor
	attr     *obs.Attributor
	wdA, wdO *obs.Watchdog
	tsA, tsO *obs.TimeSeries
}

func newConsumers(m int, lr, lw int64) *consumers {
	c := &consumers{reg: obs.NewMetrics(), fl: obs.NewFlightRecorder(1, 1<<16)}
	var tick int64 = 1_700_000_000_000_000_000
	c.reg.SetClock(func() int64 { tick += 250_000_000; return tick })
	c.bmA = obs.NewBoundMonitor(m)
	c.bmA.SetAnalytic(lr, lw)
	c.bmO = obs.NewBoundMonitor(m)
	c.attr = obs.NewAttributor(c.reg, 5)
	c.wdA = obs.NewWatchdog(obs.WatchdogConfig{M: m, Slack: 1, Keep: 1 << 20, Flight: c.fl})
	c.wdA.SetAnalytic(lr, lw)
	c.wdO = obs.NewWatchdog(obs.WatchdogConfig{Slack: 0.25, Keep: 1 << 20})
	c.tsA = obs.NewTimeSeries(c.reg, time.Second, 8)
	c.tsA.SetAnalytic(lr, lw, m)
	c.tsO = obs.NewTimeSeries(c.reg, time.Second, 8)
	return c
}

// observers assembles the consumers into two pipelines: the first carries the
// flight recorder, metrics, the analytic bound monitor, attribution and the
// analytic watchdog; the second the observed-mode bound monitor and watchdog.
func (c *consumers) observers() (all, observed core.Observer) {
	return obs.NewPipeline(obs.Sinks{
			Flight: c.fl, Metrics: obs.NewProtocolObserver(c.reg),
			Bounds: c.bmA, Attribution: c.attr, Watchdog: c.wdA,
		}),
		obs.NewPipeline(obs.Sinks{Bounds: c.bmO, Watchdog: c.wdO})
}

// feed delivers the stream to the observers, capturing a time-series sample
// before, half-way through and after it.
func (c *consumers) feed(evs []core.Event, observers ...core.Observer) {
	capture := func() { c.tsA.Capture(); c.tsO.Capture() }
	capture()
	for i, e := range evs {
		if i == len(evs)/2 {
			capture()
		}
		for _, o := range observers {
			o.Observe(e)
		}
	}
	capture()
}

// renderWatchdog prints the firings of a watchdog that retained every report.
func renderWatchdog(b *strings.Builder, name string, wd *obs.Watchdog) {
	reps := wd.Reports()
	// Several requests can fire on one check, in table order: sort.
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Now != reps[j].Now {
			return reps[i].Now < reps[j].Now
		}
		return reps[i].Req < reps[j].Req
	})
	fmt.Fprintf(b, "## watchdog (%s): %d firing(s)\n", name, wd.Firings())
	for _, r := range reps {
		fmt.Fprintf(b, "%s", r)
		if r.Dump != nil {
			last := r.Dump.Records[len(r.Dump.Records)-1]
			fmt.Fprintf(b, " [dump: %d records, last seq=%d %s req=%d]", len(r.Dump.Records), last.Seq, last.Type, last.Req)
		}
		b.WriteString("\n")
	}
}

func renderBound(b *strings.Builder, name string, ts *obs.TimeSeries) {
	j, err := json.Marshal(ts.Query(time.Hour).Bound)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(b, "## timeseries bound utilisation (%s)\n%s\n", name, j)
}

// render prints every report the consumers hold.
func (c *consumers) render() string {
	var b strings.Builder
	snap := c.reg.Snapshot()
	b.WriteString("## metrics (text)\n" + snap.String())
	b.WriteString("## metrics (openmetrics)\n")
	if err := obs.WriteOpenMetrics(&b, snap); err != nil {
		panic(err)
	}
	b.WriteString("## bounds (analytic)\n" + c.bmA.Report().String())
	b.WriteString("## bounds (observed)\n" + c.bmO.Report().String())
	b.WriteString("## attribution\n" + c.attr.Report().String())
	renderWatchdog(&b, "analytic", c.wdA)
	renderWatchdog(&b, "observed", c.wdO)
	renderBound(&b, "analytic", c.tsA)
	renderBound(&b, "observed", c.tsO)
	return b.String()
}

// stream is a recorded event stream and the processor count its envelopes
// use.
type stream struct {
	name string
	m    int
	evs  []core.Event
}

// lifecycleStreams are the deterministic streams the goldens were captured
// from.
func lifecycleStreams(t testing.TB) []stream {
	return []stream{
		{"fig2", 2, fig2Stream(t)},
		{"sim42", 4, simStream(t, 42)},
		{"mcwalk", 2, mcStream(t, "mcwalk.replay")},
		{"mcwalk_cancel", 2, mcStream(t, "mcwalk_cancel.replay")},
	}
}

func TestLifecycleGolden(t *testing.T) {
	for _, s := range lifecycleStreams(t) {
		t.Run(s.name, func(t *testing.T) {
			lr, lw := csMaxima(s.evs)
			c := newConsumers(s.m, lr/4, lw/4)
			all, observed := c.observers()
			c.feed(s.evs, all, observed)
			got := c.render()

			golden := filepath.Join("testdata", "lifecycle_"+s.name+".golden")
			if *updateLifecycle {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-lifecycle to generate)", err)
			}
			if got != string(want) {
				t.Errorf("reports differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

// TestPipelineSharedTableEquivalence: sharing one request table can never
// change a verdict. Every stream — the golden ones plus seeded simulator runs
// from the same generator — goes to one pipeline carrying all sinks and to
// four pipelines of one sink each, in both envelope modes, and each sink must
// report the same either way.
func TestPipelineSharedTableEquivalence(t *testing.T) {
	streams := lifecycleStreams(t)
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		streams = append(streams, stream{fmt.Sprintf("sim%d", seed), 4, simStream(t, seed)})
	}
	// sinks builds one of each sink (the attributor over a registry of its
	// own, so the metrics sink's snapshot is comparable) and the function
	// rendering their four reports.
	sinks := func(s stream, analytic bool) (obs.Sinks, func() [4]string) {
		reg := obs.NewMetrics()
		set := obs.Sinks{
			Metrics:     obs.NewProtocolObserver(reg),
			Bounds:      obs.NewBoundMonitor(s.m),
			Attribution: obs.NewAttributor(obs.NewMetrics(), 5),
			Watchdog:    obs.NewWatchdog(obs.WatchdogConfig{Slack: 0.25, Keep: 1 << 20}),
		}
		if analytic {
			lr, lw := csMaxima(s.evs)
			set.Bounds.SetAnalytic(lr/4, lw/4)
			set.Watchdog.SetAnalytic(lr/4, lw/4)
		}
		return set, func() [4]string {
			var wd strings.Builder
			renderWatchdog(&wd, "", set.Watchdog)
			return [4]string{
				reg.Snapshot().String(),
				set.Bounds.Report().String(),
				set.Attribution.Report().String(),
				wd.String(),
			}
		}
	}
	for _, s := range streams {
		for _, analytic := range []bool{false, true} {
			shared, sharedReports := sinks(s, analytic)
			solo, soloReports := sinks(s, analytic)
			pipelines := []*obs.Pipeline{
				obs.NewPipeline(shared),
				obs.NewPipeline(obs.Sinks{Metrics: solo.Metrics}),
				obs.NewPipeline(obs.Sinks{Bounds: solo.Bounds}),
				obs.NewPipeline(obs.Sinks{Attribution: solo.Attribution}),
				obs.NewPipeline(obs.Sinks{Watchdog: solo.Watchdog}),
			}
			for _, e := range s.evs {
				for _, pl := range pipelines {
					pl.Observe(e)
				}
			}
			got, want := sharedReports(), soloReports()
			for i, sink := range []string{"metrics", "bounds", "attribution", "watchdog"} {
				if got[i] != want[i] {
					t.Errorf("%s (analytic=%v): %s sink reports differently on the shared table:\n--- all sinks\n%s--- alone\n%s",
						s.name, analytic, sink, got[i], want[i])
				}
			}
		}
	}
}
