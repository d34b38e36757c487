// Benchmark harness: one target per reproduced table/figure/claim (see
// DESIGN.md §3 and EXPERIMENTS.md). Simulator-plane benches report
// observed-vs-bound ratios and concurrency as custom metrics; runtime-plane
// benches (E15) measure goroutine lock throughput.
//
//	go test -bench=. -benchmem
package rwrnlp_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/analysis"
	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/locks/grouplock"
	"github.com/rtsync/rwrnlp/internal/locks/mutexrnlp"
	"github.com/rtsync/rwrnlp/internal/locks/phasefair"
	"github.com/rtsync/rwrnlp/internal/locks/taskfair"
	"github.com/rtsync/rwrnlp/internal/obs"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/sim"
	"github.com/rtsync/rwrnlp/internal/stm"
	"github.com/rtsync/rwrnlp/internal/workload"
)

var bg = context.Background()

// ---------------------------------------------------------------------------
// Simulator-plane benches (E4, E5, E9–E12, E14)

func simParams(m int) workload.Params {
	return workload.Params{
		M: m, NumTasks: 3 * m, Util: workload.UtilUniformLight,
		NumResources: 6, AccessProb: 1, ReqPerJob: 3,
		NestedProb: 0.5, ReadRatio: 0.5,
		CSMin: 50_000, CSMax: 500_000,
	}
}

func runSim(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res := s.Run()
	if len(res.Violations) > 0 {
		b.Fatalf("violations: %v", res.Violations[0])
	}
	return res
}

// BenchmarkTheorem1ReaderBound (E4): simulate and report the worst observed
// read acquisition delay as a fraction of the Theorem 1 bound.
func BenchmarkTheorem1ReaderBound(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		sys := workload.Generate(rand.New(rand.NewSource(seed)), simParams(8))
		bounds := analysis.BoundsOf(sys)
		res := runSim(b, sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, Horizon: 200_000_000, Seed: seed,
		})
		if r := float64(res.MaxReadAcq) / float64(bounds.ReadAcq()); r > worst {
			worst = r
		}
		if res.MaxReadAcq > bounds.ReadAcq() {
			b.Fatalf("Theorem 1 violated: %d > %d", res.MaxReadAcq, bounds.ReadAcq())
		}
	}
	b.ReportMetric(worst, "maxObserved/bound")
}

// BenchmarkTheorem2WriterBound (E5): the writer analogue.
func BenchmarkTheorem2WriterBound(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		sys := workload.Generate(rand.New(rand.NewSource(seed)), simParams(8))
		bounds := analysis.BoundsOf(sys)
		res := runSim(b, sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, Horizon: 200_000_000, Seed: seed,
		})
		if r := float64(res.MaxWriteAcq) / float64(bounds.WriteAcq()); r > worst {
			worst = r
		}
		if res.MaxWriteAcq > bounds.WriteAcq() {
			b.Fatalf("Theorem 2 violated: %d > %d", res.MaxWriteAcq, bounds.WriteAcq())
		}
	}
	b.ReportMetric(worst, "maxObserved/bound")
}

// BenchmarkPlaceholderAblation (E9): CS parallelism of placeholder mode
// relative to expanded writes on the same workloads.
func BenchmarkPlaceholderAblation(b *testing.B) {
	var sumGain float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		sys := workload.Generate(rand.New(rand.NewSource(seed)), simParams(8))
		base := runSim(b, sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, Horizon: 200_000_000, Seed: seed,
		})
		ph := runSim(b, sim.Config{
			System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
			Horizon: 200_000_000, Seed: seed,
		})
		if base.CSParallelism > 0 {
			sumGain += ph.CSParallelism / base.CSParallelism
		}
	}
	b.ReportMetric(sumGain/float64(b.N), "parallelism-gain")
}

// BenchmarkMixingAblation (E10): parallelism with mixed requests vs pure
// writes.
func BenchmarkMixingAblation(b *testing.B) {
	var sumGain float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		p := simParams(8)
		p.NestedProb = 0.8
		pure := workload.Generate(rand.New(rand.NewSource(seed)), p)
		p.MixedProb = 0.6
		mixed := workload.Generate(rand.New(rand.NewSource(seed)), p)
		r1 := runSim(b, sim.Config{System: pure, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
			Horizon: 200_000_000, Seed: seed})
		r2 := runSim(b, sim.Config{System: mixed, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
			Horizon: 200_000_000, Seed: seed})
		if r1.CSParallelism > 0 {
			sumGain += r2.CSParallelism / r1.CSParallelism
		}
	}
	b.ReportMetric(sumGain/float64(b.N), "parallelism-gain")
}

// BenchmarkUpgradeAblation (E11): native upgrades vs pessimistic writes.
func BenchmarkUpgradeAblation(b *testing.B) {
	var sumGain float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		p := simParams(8)
		p.ReadRatio = 0.7
		p.UpgradeProb = 1.0
		sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
		fine := runSim(b, sim.Config{System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: true},
			Horizon: 200_000_000, Seed: seed})
		pess := runSim(b, sim.Config{System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoMutexRNLP, Horizon: 200_000_000, Seed: seed})
		if pess.CSParallelism > 0 {
			sumGain += fine.CSParallelism / pess.CSParallelism
		}
	}
	b.ReportMetric(sumGain/float64(b.N), "parallelism-gain")
}

// BenchmarkIncremental (E12): incremental cumulative delay relative to the
// single-shot bound.
func BenchmarkIncremental(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		p := simParams(8)
		p.NestedProb = 0.9
		p.ReadRatio = 0.3
		p.IncrementalProb = 1.0
		sys := workload.Generate(rand.New(rand.NewSource(seed)), p)
		bounds := analysis.BoundsOf(sys)
		res := runSim(b, sim.Config{System: sys, Policy: sched.EDF, Progress: sim.SpinNP,
			Protocol: sim.ProtoRWRNLP, Horizon: 200_000_000, Seed: seed, RecordRequests: true})
		for _, r := range res.Requests {
			if r.Incr {
				if ratio := float64(r.Acq) / float64(bounds.WriteAcq()); ratio > worst {
					worst = ratio
				}
				if r.Acq > bounds.WriteAcq() {
					b.Fatal("incremental delay exceeded single-shot bound")
				}
			}
		}
	}
	b.ReportMetric(worst, "maxCumDelay/bound")
}

// BenchmarkSchedStudy (E14): one full utilization sweep per iteration;
// reports the schedulable-fraction advantage of the R/W RNLP over the mutex
// RNLP at the crossover region.
func BenchmarkSchedStudy(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rwOK, muOK := 0, 0
		for s := 0; s < 20; s++ {
			rng := rand.New(rand.NewSource(int64(i*1000 + s)))
			sys := workload.Generate(rng, workload.Params{
				M: 8, TotalUtil: 3.2, Util: workload.UtilUniformLight,
				NumResources: 8, AccessProb: 0.8, ReqPerJob: 2,
				NestedProb: 0.4, ReadRatio: 0.8,
				CSMin: 10_000, CSMax: 100_000, WriteCSScale: 0.25,
			})
			if analysis.NewAnalyzer(sys, sim.ProtoRWRNLP, sim.SpinNP).SchedulableGEDF() {
				rwOK++
			}
			if analysis.NewAnalyzer(sys, sim.ProtoMutexRNLP, sim.SpinNP).SchedulableGEDF() {
				muOK++
			}
		}
		adv += float64(rwOK-muOK) / 20
	}
	b.ReportMetric(adv/float64(b.N), "rwrnlp-advantage")
}

// ---------------------------------------------------------------------------
// Runtime-plane throughput benches (E15)

func benchProtocolRuntime(b *testing.B, readFrac int, acquire func(write bool, r0, r1 rwrnlp.ResourceID) func()) {
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		var r0, r1 rwrnlp.ResourceID
		for pb.Next() {
			r0 = rwrnlp.ResourceID(i % 4)
			r1 = rwrnlp.ResourceID((i + 1) % 4)
			write := i%readFrac == 0
			acquire(write, r0, r1)()
			i++
		}
	})
}

func newBenchProtocol(b *testing.B) *rwrnlp.Protocol {
	spec := rwrnlp.NewSpecBuilder(4)
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
		b.Fatal(err)
	}
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
		b.Fatal(err)
	}
	return rwrnlp.New(spec.Build(), rwrnlp.WithPlaceholders())
}

// BenchmarkRuntimeRWRNLPReadHeavy: 15/16 reads of one resource, 1/16
// two-resource writes.
func BenchmarkRuntimeRWRNLPReadHeavy(b *testing.B) {
	p := newBenchProtocol(b)
	var shared [4]int64
	benchProtocolRuntime(b, 16, func(write bool, r0, r1 rwrnlp.ResourceID) func() {
		return func() {
			if write {
				tok, _ := p.Write(bg, r0, r1)
				shared[r0]++
				shared[r1]++
				p.Release(tok)
			} else {
				tok, _ := p.Read(bg, r0)
				_ = shared[r0]
				p.Release(tok)
			}
		}
	})
}

// BenchmarkRuntimeMutexRNLPReadHeavy: the same workload where reads pay the
// mutex price.
func BenchmarkRuntimeMutexRNLPReadHeavy(b *testing.B) {
	l := mutexrnlp.New(4)
	var shared [4]int64
	benchProtocolRuntime(b, 16, func(write bool, r0, r1 rwrnlp.ResourceID) func() {
		return func() {
			if write {
				tok, _ := l.Acquire(r0, r1)
				shared[r0]++
				shared[r1]++
				l.Release(tok)
			} else {
				tok, _ := l.Acquire(r0)
				_ = shared[r0]
				l.Release(tok)
			}
		}
	})
}

// BenchmarkRuntimeGroupLockReadHeavy: coarse-grained phase-fair group lock.
func BenchmarkRuntimeGroupLockReadHeavy(b *testing.B) {
	l := grouplock.NewSingle(4, false)
	var shared [4]int64
	benchProtocolRuntime(b, 16, func(write bool, r0, r1 rwrnlp.ResourceID) func() {
		return func() {
			if write {
				tok, _ := l.Acquire(nil, []core.ResourceID{core.ResourceID(r0), core.ResourceID(r1)})
				shared[r0]++
				shared[r1]++
				l.Release(tok)
			} else {
				tok, _ := l.Acquire([]core.ResourceID{core.ResourceID(r0)}, nil)
				_ = shared[r0]
				l.Release(tok)
			}
		}
	})
}

// BenchmarkRuntimePhaseFairReadHeavy: the single-resource PF-T baseline.
func BenchmarkRuntimePhaseFairReadHeavy(b *testing.B) {
	var l phasefair.Lock
	var shared int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 0 {
				l.Lock()
				shared++
				l.Unlock()
			} else {
				l.RLock()
				_ = shared
				l.RUnlock()
			}
			i++
		}
	})
}

// BenchmarkRuntimeTaskFairReadHeavy: the task-fair (strict FIFO) ticket RW
// baseline — the foil phase-fairness is defined against.
func BenchmarkRuntimeTaskFairReadHeavy(b *testing.B) {
	var l taskfair.Lock
	var shared int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 0 {
				l.Lock()
				shared++
				l.Unlock()
			} else {
				l.RLock()
				_ = shared
				l.RUnlock()
			}
			i++
		}
	})
}

// BenchmarkRuntimeSyncRWMutexReadHeavy: the Go stdlib reference point.
func BenchmarkRuntimeSyncRWMutexReadHeavy(b *testing.B) {
	var l sync.RWMutex
	var shared int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%16 == 0 {
				l.Lock()
				shared++
				l.Unlock()
			} else {
				l.RLock()
				_ = shared
				l.RUnlock()
			}
			i++
		}
	})
}

// BenchmarkRuntimeRWRNLPWriteHeavy: the write-dominated counterpoint.
func BenchmarkRuntimeRWRNLPWriteHeavy(b *testing.B) {
	p := newBenchProtocol(b)
	var shared [4]int64
	benchProtocolRuntime(b, 2, func(write bool, r0, r1 rwrnlp.ResourceID) func() {
		return func() {
			if write {
				tok, _ := p.Write(bg, r0, r1)
				shared[r0]++
				shared[r1]++
				p.Release(tok)
			} else {
				tok, _ := p.Read(bg, r0)
				_ = shared[r0]
				p.Release(tok)
			}
		}
	})
}

// BenchmarkRuntimeUpgradeable: upgradeable acquisition round trips.
func BenchmarkRuntimeUpgradeable(b *testing.B) {
	p := newBenchProtocol(b)
	var shared [4]int64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := rwrnlp.ResourceID(i % 4)
			u, err := p.AcquireUpgradeable(bg, r)
			if err != nil {
				b.Error(err)
				return
			}
			if u.Reading() {
				if shared[r]%7 == 0 {
					if err := u.Upgrade(bg); err != nil {
						b.Error(err)
						return
					}
					shared[r]++
					u.Release()
				} else {
					u.ReleaseRead()
				}
			} else {
				shared[r]++
				u.Release()
			}
			i++
		}
	})
}

// BenchmarkSTM (E16): transactional transfers with concurrent audits.
func BenchmarkSTM(b *testing.B) {
	sys := stm.NewSystem()
	accounts := make([]*stm.Var[int], 4)
	var all []stm.VarBase
	for i := range accounts {
		accounts[i] = stm.NewVar(sys, 100)
		all = append(all, accounts[i])
	}
	sys.DeclareTx(all, nil)
	for i := range accounts {
		for j := range accounts {
			if i != j {
				sys.DeclareTx(nil, stm.Writes(accounts[i], accounts[j]))
			}
		}
	}
	s := sys.Build(stm.Options{Placeholders: true})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%8 == 0 {
				from, to := accounts[i%4], accounts[(i+1)%4]
				_ = s.Atomically(nil, stm.Writes(from, to), func(tx *stm.Tx) error {
					v := stm.Get(tx, from)
					stm.Set(tx, from, v-1)
					stm.Set(tx, to, stm.Get(tx, to)+1)
					return nil
				})
			} else {
				_ = s.Atomically(all, nil, func(tx *stm.Tx) error {
					t := 0
					for _, a := range accounts {
						t += stm.Get(tx, a)
					}
					_ = t
					return nil
				})
			}
			i++
		}
	})
}

// ---------------------------------------------------------------------------
// Observability overhead (PR 1 acceptance): the same uncontended read
// round trip with metrics off and on. The no-observer path must stay within
// noise of the seed; the observed path prices the full obs pipeline
// (ProtocolObserver + wall-clock histograms).

func benchAcquireReadLoop(b *testing.B, p *rwrnlp.Protocol) {
	b.Helper()
	var shared [4]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rwrnlp.ResourceID(i % 4)
		tok, err := p.Read(bg, r)
		if err != nil {
			b.Fatal(err)
		}
		_ = shared[r]
		if err := p.Release(tok); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquireNoObserver: metrics disabled — the acquisition path's only
// observability cost is a nil check.
func BenchmarkAcquireNoObserver(b *testing.B) {
	benchAcquireReadLoop(b, newBenchProtocol(b))
}

// BenchmarkAcquireObserved: WithMetrics on — event-derived counters and
// histograms plus wall-clock instrumentation.
func BenchmarkAcquireObserved(b *testing.B) {
	spec := rwrnlp.NewSpecBuilder(4)
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
		b.Fatal(err)
	}
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
		b.Fatal(err)
	}
	p := rwrnlp.New(spec.Build(), rwrnlp.WithPlaceholders(), rwrnlp.WithMetrics())
	benchAcquireReadLoop(b, p)
	snap := p.Metrics().Snapshot()
	// All-read traffic is served by the reader fast path (fastpath_hit) or,
	// on a miss, by the RSM (protocol_issued); either way metrics must have
	// recorded every acquisition.
	recorded := snap.Counters["protocol_issued"]
	for s := 0; s < p.NumShards(); s++ {
		recorded += snap.Counters[obs.ShardMetric(obs.MFastPathHit, s)]
	}
	if recorded == 0 {
		b.Fatal("metrics not recorded")
	}
}

// BenchmarkRuntimeScaling sweeps goroutine parallelism on the read-heavy
// R/W RNLP workload (E15's scaling axis).
func BenchmarkRuntimeScaling(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			p := newBenchProtocol(b)
			var shared [4]int64
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					r0 := rwrnlp.ResourceID(i % 4)
					if i%16 == 0 {
						tok, _ := p.Write(bg, r0)
						shared[r0]++
						p.Release(tok)
					} else {
						tok, _ := p.Read(bg, r0)
						_ = shared[r0]
						p.Release(tok)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkShardScaling measures the tentpole win of component sharding:
// k disjoint declared components ({2i,2i+1} pairs), goroutines pinned
// round-robin to components, alternating component-wide reads and writes.
// Unsharded, every request funnels through one engine whose stabilization
// scans ALL in-flight requests under one mutex; sharded, each component's
// engine sees only its own 1/k share. The "single" variants add one
// write-only declaration over everything — the same read sharing in one
// component, hence one engine — for a like-for-like baseline.
func BenchmarkShardScaling(b *testing.B) {
	for _, comps := range []int{1, 2, 4, 8} {
		for _, par := range []int{1, 4, 8, 16} {
			for _, mode := range []string{"sharded", "single"} {
				comps, par, mode := comps, par, mode
				b.Run(fmt.Sprintf("comps=%d/par=%d/%s", comps, par, mode), func(b *testing.B) {
					spec, want := componentSpec(b, comps), comps
					if mode == "single" {
						spec, want = oneComponentSpec(b, comps), 1
					}
					p := rwrnlp.New(spec)
					if p.NumShards() != want {
						b.Fatalf("NumShards = %d, want %d", p.NumShards(), want)
					}
					shared := make([]int64, 2*comps)
					var nextG atomic.Int64
					b.SetParallelism(par)
					b.RunParallel(func(pb *testing.PB) {
						g := int(nextG.Add(1) - 1)
						comp := g % comps
						r0, r1 := rwrnlp.ResourceID(2*comp), rwrnlp.ResourceID(2*comp+1)
						i := 0
						for pb.Next() {
							if i%4 == 0 {
								tok, _ := p.Write(bg, r0, r1)
								shared[r0]++
								shared[r1]++
								p.Release(tok)
							} else {
								tok, _ := p.Read(bg, r0, r1)
								_ = shared[r0]
								p.Release(tok)
							}
							i++
						}
					})
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// BRAVO-style reader fast path (PR 4 acceptance): uncontended all-read
// acquisitions with the fast path on vs off. The "on" variant must publish
// the read set with atomic stores only — no shard mutex, no flat-combining
// stack, no RSM — and the acceptance bar is >=3x the "off" throughput for
// the uncontended single-goroutine loop.

func newFastPathBenchProtocol(b *testing.B, fast bool) *rwrnlp.Protocol {
	b.Helper()
	spec := rwrnlp.NewSpecBuilder(4)
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
		b.Fatal(err)
	}
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
		b.Fatal(err)
	}
	var opts []rwrnlp.Option
	if !fast {
		opts = append(opts, rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}))
	}
	return rwrnlp.New(spec.Build(), opts...)
}

// BenchmarkFastPathUncontendedRead: single goroutine, single-resource read
// round trips. This is the headline fast-path number.
func BenchmarkFastPathUncontendedRead(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		mode := mode
		b.Run("fastpath="+mode, func(b *testing.B) {
			benchAcquireReadLoop(b, newFastPathBenchProtocol(b, mode == "on"))
		})
	}
}

// BenchmarkFastPathParallelRead: all goroutines read the same component
// concurrently. With the fast path on, readers claim distinct padded slots
// and never serialize; off, every reader funnels through the shard mutex or
// the flat-combining stack.
func BenchmarkFastPathParallelRead(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		mode := mode
		b.Run("fastpath="+mode, func(b *testing.B) {
			p := newFastPathBenchProtocol(b, mode == "on")
			var shared [4]int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tok, err := p.Read(bg, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					_ = shared[0]
					if err := p.Release(tok); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkFastPathReadMostly: 63/64 reads, 1/64 writes per goroutine,
// goroutines pinned to components. Writers close the gate and drain, so
// this prices the revocation/hysteresis machinery under realistic
// read-mostly traffic rather than the pure-read best case.
func BenchmarkFastPathReadMostly(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		mode := mode
		b.Run("fastpath="+mode, func(b *testing.B) {
			p := newFastPathBenchProtocol(b, mode == "on")
			var shared [4]int64
			var nextG atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				g := int(nextG.Add(1) - 1)
				comp := g % 2
				r0, r1 := rwrnlp.ResourceID(2*comp), rwrnlp.ResourceID(2*comp+1)
				i := 0
				for pb.Next() {
					if i%64 == 63 {
						tok, _ := p.Write(bg, r0, r1)
						shared[r0]++
						shared[r1]++
						p.Release(tok)
					} else {
						tok, _ := p.Read(bg, r0)
						_ = shared[r0]
						p.Release(tok)
					}
					i++
				}
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Writer fast path + per-P slot striping (PR 8 acceptance)

// BenchmarkUncontendedWriter: single goroutine, single-resource write round
// trips. With the writer plane on, an uncontended write claims the whole
// component with one CAS on the shard's writer word — no mutex, no RSM. The
// off variant is the PR 4 baseline (reader plane only; every write traverses
// the RSM). The acceptance bar — fast writes at least 60% faster than the
// slow path, i.e. within single-digit multiples of the BRAVO read — is
// checked by the `wfast` row of `make pair-gates` (cmd/benchjson/gates.go).
func BenchmarkUncontendedWriter(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		mode := mode
		b.Run("wfast="+mode, func(b *testing.B) {
			spec := rwrnlp.NewSpecBuilder(4)
			if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
				b.Fatal(err)
			}
			if err := spec.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
				b.Fatal(err)
			}
			fc := rwrnlp.FastPathConfig{Readers: true, Writers: mode == "on"}
			p := rwrnlp.New(spec.Build(), rwrnlp.WithFastPath(fc))
			var shared [2]int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, err := p.Write(bg, rwrnlp.ResourceID(i%2))
				if err != nil {
					b.Fatal(err)
				}
				shared[i%2]++
				if err := p.Release(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadScaling: all goroutines read the same component concurrently
// through the per-P striped visible-readers table (stack-address hinted slot
// probing, per-slot claim counters), so parallel readers share no cache line
// on the fast path.
func BenchmarkReadScaling(b *testing.B) {
	p := newFastPathBenchProtocol(b, true)
	var shared [4]int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tok, err := p.Read(bg, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			_ = shared[0]
			if err := p.Release(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Contended slow path + parking (PR 9 acceptance)

// BenchmarkContendedAcquire prices the contended slow path itself: fixed
// goroutine pools hammer one (or four) components with interleaved writes,
// so most acquisitions are unsatisfied at issue and must park. Both
// fast-path planes are disabled — a fast-path hit would bypass the parker
// entirely — and the background context routes every wait through the
// non-cancelable park path.
func BenchmarkContendedAcquire(b *testing.B) {
	scenarios := []struct {
		name       string
		gs         int // goroutines
		comps      int // components (each {2i, 2i+1})
		writeEvery int // every k-th op is a component-wide write
	}{
		{"2g", 2, 1, 4},
		{"8g", 8, 1, 4},
		{"32g", 32, 1, 4},
		{"8g-4c", 8, 4, 4},
		{"8g-writeheavy", 8, 1, 2},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			spec := rwrnlp.NewSpecBuilder(2 * sc.comps)
			for i := 0; i < sc.comps; i++ {
				r0, r1 := rwrnlp.ResourceID(2*i), rwrnlp.ResourceID(2*i+1)
				if err := spec.DeclareRequest([]rwrnlp.ResourceID{r0, r1}, nil); err != nil {
					b.Fatal(err)
				}
			}
			p := rwrnlp.New(spec.Build(),
				rwrnlp.WithPlaceholders(),
				rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}))
			shared := make([]int64, 2*sc.comps)
			per := b.N/sc.gs + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < sc.gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					comp := g % sc.comps
					r0, r1 := rwrnlp.ResourceID(2*comp), rwrnlp.ResourceID(2*comp+1)
					for i := 0; i < per; i++ {
						if i%sc.writeEvery == 0 {
							tok, err := p.Write(bg, r0, r1)
							if err != nil {
								b.Error(err)
								return
							}
							shared[r0]++
							shared[r1]++
							p.Release(tok)
						} else {
							tok, err := p.Read(bg, r0, r1)
							if err != nil {
								b.Error(err)
								return
							}
							_ = shared[r0]
							p.Release(tok)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// ---------------------------------------------------------------------------
// Flight-recorder overhead (PR 5 acceptance)

// BenchmarkAcquire prices the flight recorder on the slow (RSM) acquisition
// path: write round trips with the recorder off (one nil pointer test per
// protocol event) vs on (one lock-free ring record per event). The off
// variant is the PR 4 baseline; the pair is bounded by the `flight` row of
// `make pair-gates` (cmd/benchjson/gates.go). Both fast-path planes
// are disabled so every acquisition actually traverses the RSM — an
// uncontended write would otherwise take the writer fast path and hide the
// instrumentation entirely.
func BenchmarkAcquire(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		mode := mode
		b.Run("flight="+mode, func(b *testing.B) {
			spec := rwrnlp.NewSpecBuilder(4)
			if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
				b.Fatal(err)
			}
			opts := []rwrnlp.Option{rwrnlp.WithFastPath(rwrnlp.FastPathConfig{})}
			if mode == "on" {
				opts = append(opts, rwrnlp.WithFlightRecorder(1024))
			}
			p := rwrnlp.New(spec.Build(), opts...)
			var shared [2]int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, err := p.Write(bg, rwrnlp.ResourceID(i%2))
				if err != nil {
					b.Fatal(err)
				}
				shared[i%2]++
				if err := p.Release(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// hdr prices the metrics plane with its HDR log-linear histograms on the
	// same write round trip: every protocol event feeds the sharded counters
	// and the per-event histogram records (sum + bucket + min/max + exemplar
	// slot). The off variant is the same shape with a nil registry; the pair
	// is compared same-run by the `hdr` row of `make pair-gates`, so machine
	// drift cancels.
	//
	// obs=all is the same round trip under rnlpd's default option set — the
	// whole observability pipeline: flight recorder, metrics, time series and
	// attribution behind one request table per shard. The `obs-all` row bounds
	// it against hdr=off, so what the pipeline costs is bounded in one place.
	for _, mode := range []string{"hdr=off", "hdr=on", "obs=all"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			spec := rwrnlp.NewSpecBuilder(4)
			if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
				b.Fatal(err)
			}
			opts := []rwrnlp.Option{rwrnlp.WithFastPath(rwrnlp.FastPathConfig{})}
			switch mode {
			case "hdr=on":
				opts = append(opts, rwrnlp.WithMetrics())
			case "obs=all":
				opts = append(opts, rwrnlp.WithMetrics(), rwrnlp.WithFlightRecorder(4096),
					rwrnlp.WithTimeSeries(time.Second, 0), rwrnlp.WithAttribution(10))
			}
			p := rwrnlp.New(spec.Build(), opts...)
			defer p.Close()
			var shared [2]int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, err := p.Write(bg, rwrnlp.ResourceID(i%2))
				if err != nil {
					b.Fatal(err)
				}
				shared[i%2]++
				if err := p.Release(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Distributed-tracing overhead (PR 10 acceptance)

// BenchmarkTracedAcquire prices request tagging on the contended slow path:
// the same 8-goroutine read-mostly workload with no trace tag on the context
// (trace=off) versus every request carrying one (trace=on). The on side pays
// one context lookup per acquire plus the tag copy onto each of the request's
// shard events — flight records and exemplars then carry it for free, since
// their fields exist either way. Metrics and the flight recorder run on both
// sides so the pair isolates exactly the tagging delta; both fast-path planes
// are disabled so every acquisition traverses the RSM (a fast-path hit is
// never tagged). The `trace` row of `make pair-gates` bounds the pair in CI.
func BenchmarkTracedAcquire(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		mode := mode
		b.Run("trace="+mode, func(b *testing.B) {
			spec := rwrnlp.NewSpecBuilder(2)
			if err := spec.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
				b.Fatal(err)
			}
			p := rwrnlp.New(spec.Build(),
				rwrnlp.WithPlaceholders(),
				rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}),
				rwrnlp.WithMetrics(),
				rwrnlp.WithFlightRecorder(1024))
			ctx := bg
			if mode == "on" {
				ctx = rwrnlp.ContextWithTag(bg, "benchbenchbench0")
			}
			const gs = 8
			var shared [2]int64
			per := b.N/gs + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if i%4 == 0 {
							tok, err := p.Write(ctx, 0, 1)
							if err != nil {
								b.Error(err)
								return
							}
							shared[0]++
							shared[1]++
							p.Release(tok)
						} else {
							tok, err := p.Read(ctx, 0, 1)
							if err != nil {
								b.Error(err)
								return
							}
							_ = shared[0]
							p.Release(tok)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
