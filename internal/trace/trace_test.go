package trace

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/sim"
	"github.com/rtsync/rwrnlp/internal/workload"
)

var bg = context.Background()

// A hand-driven RSM execution (the Fig. 2 running example) passes all
// checks.
func TestCheckFig2(t *testing.T) {
	b := core.NewSpecBuilder(3)
	if err := b.DeclareReadGroup(0, 1); err != nil {
		t.Fatal(err)
	}
	m := core.NewRSM(b.Build(), core.Options{})
	rec := &Recorder{}
	m.SetObserver(rec)

	issue := func(at core.Time, read, write []core.ResourceID) core.ReqID {
		id, err := m.Issue(at, read, write, nil)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	w11 := issue(1, nil, []core.ResourceID{0, 1})
	w21 := issue(2, nil, []core.ResourceID{0, 1, 2})
	r31 := issue(3, []core.ResourceID{2}, nil)
	r41 := issue(4, []core.ResourceID{2}, nil)
	_ = m.Complete(5, w11)
	_ = m.Complete(6, r41)
	r51 := issue(7, []core.ResourceID{0, 1}, nil)
	_ = m.Complete(8, r31)
	_ = m.Complete(10, w21)
	_ = m.Complete(12, r51)

	res := Check(rec.Events())
	if !res.Ok() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Events == 0 {
		t.Fatal("no events captured")
	}
}

// A corrupted stream is flagged: double satisfaction, unknown requests,
// overlapping write locks.
func TestCheckDetectsCorruption(t *testing.T) {
	mk := func(events ...core.Event) Result { return Check(events) }

	issued := func(id core.ReqID, w ...core.ResourceID) core.Event {
		return core.Event{Type: core.EvIssued, Req: id, Kind: core.KindWrite, Write: core.NewResourceSet(w...)}
	}
	sat := func(id core.ReqID, w ...core.ResourceID) core.Event {
		return core.Event{Type: core.EvSatisfied, Req: id, Resources: core.NewResourceSet(w...), Write: core.NewResourceSet(w...)}
	}

	if r := mk(sat(1, 0)); r.Ok() {
		t.Error("satisfaction of unknown request not flagged")
	}
	if r := mk(issued(1, 0), sat(1, 0), sat(1, 0)); r.Ok() {
		t.Error("double satisfaction not flagged")
	}
	// Two overlapping write locks.
	ev := []core.Event{issued(1, 0), issued(2, 0), sat(1, 0), sat(2, 0)}
	ev[1].Write = core.NewResourceSet(0)
	if r := mk(ev...); r.Ok() {
		t.Error("overlapping write locks not flagged")
	}
	// Satisfied but never completed.
	if r := mk(issued(1, 0), sat(1, 0)); r.Ok() {
		t.Error("unbalanced lifecycle not flagged")
	}
	// FIFO violation: later conflicting write satisfied first.
	ev2 := []core.Event{issued(1, 0), issued(2, 0), sat(2, 0)}
	if r := mk(ev2...); r.Ok() {
		t.Error("writer FIFO violation not flagged")
	}
}

// The runtime protocol under concurrent load produces a stream that passes
// every check, in all option combinations and with all request forms.
func TestCheckRuntimeExecution(t *testing.T) {
	for _, opt := range [][]rwrnlp.Option{nil, {rwrnlp.WithPlaceholders()}} {
		b := rwrnlp.NewSpecBuilder(4)
		if err := b.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil); err != nil {
			t.Fatal(err)
		}
		p := rwrnlp.New(b.Build(), opt...)
		rec := &Recorder{}
		p.SetTracer(rec)

		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				r0 := rwrnlp.ResourceID(g % 4)
				r1 := rwrnlp.ResourceID((g + 1) % 4)
				// Incremental form needs a same-component partner (components
				// are {0,1} and {2,3}); r1 may cross components, which the
				// plain write path serves via the ordered slow path.
				rInc := r0 ^ 1
				for i := 0; i < 150; i++ {
					switch rng.Intn(4) {
					case 0:
						tok, err := p.Read(bg, r0)
						if err != nil {
							t.Error(err)
							return
						}
						p.Release(tok)
					case 1:
						tok, err := p.Write(bg, r0, r1)
						if err != nil {
							t.Error(err)
							return
						}
						p.Release(tok)
					case 2:
						u, err := p.AcquireUpgradeable(bg, r0)
						if err != nil {
							t.Error(err)
							return
						}
						if u.Reading() {
							if rng.Intn(2) == 0 {
								if err := u.Upgrade(bg); err != nil {
									t.Error(err)
									return
								}
								u.Release()
							} else {
								u.ReleaseRead()
							}
						} else {
							u.Release()
						}
					case 3:
						inc, err := p.AcquireIncremental(bg, nil, []rwrnlp.ResourceID{r0, rInc}, nil, []rwrnlp.ResourceID{r0})
						if err != nil {
							t.Error(err)
							return
						}
						if err := inc.Acquire(bg, rInc); err != nil {
							t.Error(err)
							return
						}
						inc.Release()
					}
				}
			}(g)
		}
		wg.Wait()

		res := Check(rec.Events())
		if !res.Ok() {
			t.Fatalf("opts %+v: %d events, violations: %v", opt, res.Events, res.Violations[:min(3, len(res.Violations))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Cross-validation: full simulator runs — every protocol variant, both
// progress mechanisms — produce event streams that pass the independent
// trace checker.
func TestCheckSimulatorExecutions(t *testing.T) {
	params := workload.Params{
		M: 4, NumTasks: 12, Util: workload.UtilUniformLight,
		NumResources: 6, AccessProb: 1, ReqPerJob: 3,
		NestedProb: 0.5, ReadRatio: 0.6, MixedProb: 0.2,
		UpgradeProb: 0.3, IncrementalProb: 0.3,
		CSMin: 50_000, CSMax: 500_000,
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, prog := range []sim.Progress{sim.SpinNP, sim.Donation} {
			rec := &Recorder{}
			rng := rand.New(rand.NewSource(seed))
			sys := workload.Generate(rng, params)
			s, err := sim.New(sim.Config{
				System: sys, Policy: sched.EDF, Progress: prog,
				Protocol: sim.ProtoRWRNLP, RSM: core.Options{Placeholders: seed%2 == 0},
				Horizon: 300_000_000, Seed: seed, Trace: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			// The horizon cuts executions mid-flight: use the truncated check.
			res := CheckTruncated(rec.Events())
			if !res.Ok() {
				t.Fatalf("seed %d %v: %d events, violations: %v", seed, prog, res.Events, res.Violations[:min(3, len(res.Violations))])
			}
			if res.Events == 0 {
				t.Fatalf("seed %d: no events traced", seed)
			}
		}
	}
}

// Branch coverage for the checker's lifecycle rules.
func TestCheckLifecycleBranches(t *testing.T) {
	issuedR := func(id core.ReqID, r ...core.ResourceID) core.Event {
		return core.Event{Type: core.EvIssued, Req: id, Kind: core.KindRead, Read: core.NewResourceSet(r...)}
	}
	satR := func(id core.ReqID, r ...core.ResourceID) core.Event {
		return core.Event{Type: core.EvSatisfied, Req: id, Resources: core.NewResourceSet(r...), Read: core.NewResourceSet(r...)}
	}
	done := func(id core.ReqID) core.Event { return core.Event{Type: core.EvCompleted, Req: id} }

	// Double issue.
	if Check([]core.Event{issuedR(1, 0), issuedR(1, 0)}).Ok() {
		t.Error("double issue accepted")
	}
	// Entitlement of a satisfied request.
	bad := []core.Event{issuedR(1, 0), satR(1, 0), {Type: core.EvEntitled, Req: 1}, done(1)}
	if Check(bad).Ok() {
		t.Error("entitlement after satisfaction accepted")
	}
	// Completion of an unknown request.
	if Check([]core.Event{done(9)}).Ok() {
		t.Error("unknown completion accepted")
	}
	// Double completion.
	if Check([]core.Event{issuedR(1, 0), satR(1, 0), done(1), done(1)}).Ok() {
		t.Error("double completion accepted")
	}
	// Grant to unknown request.
	if Check([]core.Event{{Type: core.EvGranted, Req: 3, Resources: core.NewResourceSet(0)}}).Ok() {
		t.Error("grant to unknown request accepted")
	}
	// Cancellation while holding resources.
	holdCancel := []core.Event{
		issuedR(1, 0), satR(1, 0),
		{Type: core.EvCanceled, Req: 1},
	}
	if Check(holdCancel).Ok() {
		t.Error("cancellation of a holder accepted")
	}
	// Read locks coexist (no false T1 alarms).
	good := []core.Event{
		issuedR(1, 0), satR(1, 0),
		issuedR(2, 0), satR(2, 0),
		done(1), done(2),
	}
	if res := Check(good); !res.Ok() {
		t.Errorf("concurrent readers flagged: %v", res.Violations)
	}
	// Truncated stream passes CheckTruncated but not Check.
	trunc := []core.Event{issuedR(1, 0), satR(1, 0)}
	if Check(trunc).Ok() {
		t.Error("Check accepted a truncated stream")
	}
	if !CheckTruncated(trunc).Ok() {
		t.Error("CheckTruncated rejected a legitimate truncation")
	}
	// T4: satisfaction while a conflicting entitled request waits.
	t4 := []core.Event{
		{Type: core.EvIssued, Req: 1, Kind: core.KindWrite, Write: core.NewResourceSet(0)},
		{Type: core.EvEntitled, Req: 1},
		issuedR(2, 0), satR(2, 0), done(2),
	}
	if Check(t4).Ok() {
		t.Error("overtaking an entitled conflicting request accepted")
	}
	// Recorder length.
	rec := &Recorder{}
	rec.Observe(core.Event{Type: core.EvIssued, Req: 1})
	if rec.Len() != 1 || len(rec.Events()) != 1 {
		t.Error("recorder bookkeeping wrong")
	}
}
