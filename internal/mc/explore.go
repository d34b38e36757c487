package mc

import (
	"fmt"
	"math/rand"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// Options configure an exploration.
type Options struct {
	// Memo enables canonical-state memoization: a state whose key
	// (core.StateKey + template progress + oracle state) was explored before
	// is not re-expanded. Sound because the key is behavior-complete: every
	// action sequence enabled from the revisit was already explored from the
	// first visit.
	Memo bool

	// SleepSets enables sleep-set pruning over statically independent
	// actions (templates whose expanded resource footprints are disjoint
	// commute in the RSM and in both oracles: no rule lets requests interact
	// except through shared resources). Auto-disabled when the action
	// universe exceeds 64 bits or when ExhaustiveBounds is set (independent
	// orderings differ in timing, which that mode must enumerate).
	SleepSets bool

	// CheckBounds validates the Theorem 1/2 acquisition-delay envelopes (in
	// logical step units, observed-envelope mode) at every terminal state.
	CheckBounds bool

	// ExhaustiveBounds appends the full timing history to the memoization
	// key, making the bound check exhaustive over timing histories rather
	// than per canonical path — at near-tree exploration cost.
	ExhaustiveBounds bool

	// MaxDepth bounds the schedule length (0 = unbounded; scenarios are
	// finite anyway, so this is a CI time valve, not a semantic limit).
	MaxDepth int

	// MaxStates aborts exploration after this many distinct states
	// (0 = unlimited); the result reports Truncated.
	MaxStates int

	// M is the processor count for Theorem 2's (m−1) factor; 0 means one
	// processor per template (each request from its own task, Rule G4's
	// serialized invocation model).
	M int
}

// DefaultOptions returns the standard exhaustive configuration.
func DefaultOptions() Options {
	return Options{Memo: true, SleepSets: true, CheckBounds: true}
}

// Stats describes an exploration's effort and pruning effectiveness.
type Stats struct {
	States           int // distinct states expanded
	Revisits         int // memoization hits
	Terminals        int // complete schedules reached
	SleepPruned      int // transitions suppressed by sleep sets
	SymmetryPruned   int // issue transitions suppressed by template symmetry
	DepthCutoffs     int // paths truncated by MaxDepth
	MaxDepthSeen     int // longest schedule reached
	FastPathChecked  int // reader-plane admission implications evaluated (over all node replays)
	FastWriteChecked int // writer-plane admission implications evaluated (over all node replays)
	Truncated        bool
}

func (s Stats) String() string {
	return fmt.Sprintf("states=%d revisits=%d terminals=%d sleep-pruned=%d symmetry-pruned=%d depth-cutoffs=%d max-depth=%d fastpath-checked=%d fastwrite-checked=%d",
		s.States, s.Revisits, s.Terminals, s.SleepPruned, s.SymmetryPruned, s.DepthCutoffs, s.MaxDepthSeen, s.FastPathChecked, s.FastWriteChecked)
}

// Result is the outcome of an exploration or walk.
type Result struct {
	Scenario  *Scenario
	Violation *Violation // nil when the scope is clean
	Stats     Stats
}

// memoEntry records under what conditions a state was already expanded.
type memoEntry struct {
	sleep uint64 // sleep set the state was explored under
	depth int    // depth it was reached at (matters only with MaxDepth)
}

// actionBit maps an action to its bit in the sleep-set mask: 8 slots per
// template (issue, complete, cancel, finish-read ×2, acquire ×3).
func actionBit(a Action) (uint64, bool) {
	var sub int
	switch a.Kind {
	case ActIssue:
		sub = 0
	case ActComplete:
		sub = 1
	case ActCancel:
		sub = 2
	case ActFinishReadNo:
		sub = 3
	case ActFinishReadYes:
		sub = 4
	case ActAcquire:
		if a.Ask > 2 {
			return 0, false
		}
		sub = 5 + a.Ask
	}
	idx := a.Tmpl*8 + sub
	if idx >= 64 {
		return 0, false
	}
	return 1 << uint(idx), true
}

// independenceMasks precomputes, per template, the mask of all actions of
// templates whose expanded footprints are disjoint from it. Two requests
// with disjoint footprints (needed sets closed under the read-sharing
// expansion) share no queue, no holder list, and no conflict edge, so their
// invocations commute — in the RSM and in both oracles.
func independenceMasks(sc *Scenario, spec *core.Spec) []uint64 {
	n := len(sc.Templates)
	foot := make([]core.ResourceSet, n)
	for i, tp := range sc.Templates {
		foot[i] = spec.Expand(tp.need())
	}
	masks := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || foot[i].Intersects(foot[j]) {
				continue
			}
			// All 8 action slots of template j are independent of i.
			masks[i] |= 0xff << uint(j*8)
		}
	}
	return masks
}

// Explore exhaustively enumerates every interleaving of the scenario,
// checking invariants and oracles after every step, deadlock freedom at
// every state, and (optionally) the Theorem 1/2 envelopes at every terminal
// state. It stops at the first violation.
//
// The search is stateless in the jpf sense: each node is reconstructed by
// replaying its schedule prefix on a fresh RSM, which keeps the explorer
// honest (it can only use the public invocation surface) and gives every
// violation a ready-made replay script.
func Explore(sc *Scenario, opt Options) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	spec, err := sc.Spec()
	if err != nil {
		return Result{}, err
	}
	res := Result{Scenario: sc}

	sleepOK := opt.SleepSets && !opt.ExhaustiveBounds && len(sc.Templates)*8 <= 64
	var indep []uint64
	if sleepOK {
		indep = independenceMasks(sc, spec)
	}
	memo := map[string]memoEntry{}
	m := opt.M
	if m == 0 {
		m = len(sc.Templates)
	}

	var dfs func(path []Action, sleep uint64) (*Violation, error)
	dfs = func(path []Action, sleep uint64) (*Violation, error) {
		r, err := newRunner(sc)
		if err != nil {
			return nil, err
		}
		for _, a := range path {
			if err := r.apply(a); err != nil {
				return nil, fmt.Errorf("mc: internal: replaying %s: %w", a, err)
			}
		}
		if len(path) > res.Stats.MaxDepthSeen {
			res.Stats.MaxDepthSeen = len(path)
		}
		res.Stats.FastPathChecked += r.fastChecked
		res.Stats.FastWriteChecked += r.fastWChecked
		if v := r.checkStep(); v != nil {
			v.attach(sc, path)
			return v, nil
		}

		enab, sym := r.enabled()
		res.Stats.SymmetryPruned += sym
		if len(enab) == 0 && sym == 0 {
			if !r.terminal() {
				v := &Violation{
					Kind: VDeadlock,
					Step: len(path),
					Details: []string{
						"no action enabled but templates remain unfinished",
						"incomplete: " + fmt.Sprint(r.rsm.Incomplete()),
					},
				}
				v.attach(sc, path)
				return v, nil
			}
			res.Stats.Terminals++
			if opt.CheckBounds {
				if v := checkBounds(r, m); v != nil {
					v.attach(sc, path)
					return v, nil
				}
			}
			return nil, nil
		}

		if opt.MaxDepth > 0 && len(path) >= opt.MaxDepth {
			res.Stats.DepthCutoffs++
			return nil, nil
		}

		if opt.Memo {
			key := r.key()
			if opt.ExhaustiveBounds {
				key += "@" + r.ageKey()
			}
			if e, seen := memo[key]; seen {
				depthOK := opt.MaxDepth == 0 || e.depth <= len(path)
				if depthOK && e.sleep&^sleep == 0 {
					// The earlier visit explored a superset of what we would
					// (its sleep set was ⊆ ours) from at least as much
					// remaining depth: prune.
					res.Stats.Revisits++
					return nil, nil
				}
				// Revisit under an incomparable sleep set (or from a
				// shallower depth): re-explore under the intersection so no
				// transition stays unexplored.
				sleep &= e.sleep
				if e.depth < len(path) {
					memo[key] = memoEntry{sleep: sleep, depth: e.depth}
				} else {
					memo[key] = memoEntry{sleep: sleep, depth: len(path)}
				}
			} else {
				memo[key] = memoEntry{sleep: sleep, depth: len(path)}
			}
		}
		res.Stats.States++
		if opt.MaxStates > 0 && res.Stats.States > opt.MaxStates {
			res.Stats.Truncated = true
			return nil, nil
		}

		var explored uint64
		for _, a := range enab {
			bit, hasBit := uint64(0), false
			if sleepOK {
				bit, hasBit = actionBit(a)
			}
			if hasBit && sleep&bit != 0 {
				res.Stats.SleepPruned++
				continue
			}
			childSleep := uint64(0)
			if sleepOK {
				childSleep = (sleep | explored) & indep[a.Tmpl]
			}
			v, err := dfs(append(path[:len(path):len(path)], a), childSleep)
			if v != nil || err != nil {
				return v, err
			}
			if hasBit {
				explored |= bit
			}
			if res.Stats.Truncated {
				return nil, nil
			}
		}
		return nil, nil
	}

	v, err := dfs(nil, 0)
	if err != nil {
		return res, err
	}
	res.Violation = v
	return res, nil
}

// checkBounds validates the Theorem 1/2 envelopes over the run's event log.
// Time units are logical steps, so L^r_max/L^w_max are the longest observed
// critical sections in steps.
//
// obs.BoundMonitor's observed-envelope mode deliberately excludes
// incremental requests from the envelope, but a request BLOCKED by an
// incremental holder waits for its whole hold span (Sec. 3.7 charges the
// full span as that request's critical-section length). The checker
// therefore derives the envelope itself — folding incremental hold spans
// (first grant to completion) into L^r_max/L^w_max per the request's
// read/write potential — and runs the monitor in analytic mode against it.
// For scenarios without incremental templates this reduces exactly to the
// observed envelope.
func checkBounds(r *runner, m int) *Violation {
	lr, lw := observedEnvelope(r.events)
	bm := obs.NewBoundMonitor(m)
	bm.SetAnalytic(lr, lw)
	pl := obs.NewPipeline(obs.Sinks{Bounds: bm})
	for _, e := range r.events {
		pl.Observe(e)
	}
	rep := bm.Report()
	if rep.Ok() {
		return nil
	}
	details := []string{fmt.Sprintf("Theorem 1/2 envelope exceeded (m=%d, Lr=%d, Lw=%d logical steps)", rep.M, rep.Lr, rep.Lw)}
	for _, bv := range rep.Violations {
		details = append(details, bv.String())
	}
	return &Violation{Kind: VBound, Step: r.step, Details: details}
}

// observedEnvelope computes L^r_max/L^w_max in logical steps from an event
// stream: ordinary critical sections (satisfy → complete / read-segment
// end) by kind, and incremental hold spans (first grant → complete) counted
// toward each kind the request's potential set touches.
func observedEnvelope(events []core.Event) (lr, lw int64) {
	type live struct {
		kind        core.Kind
		incremental bool
		incRead     bool
		incWrite    bool
		start       core.Time // CS start (ordinary) or hold start (incremental)
		started     bool
	}
	open := map[core.ReqID]*live{}
	for _, e := range events {
		switch e.Type {
		case core.EvIssued:
			open[e.Req] = &live{
				kind:        e.Kind,
				incremental: e.Incremental,
				incRead:     !e.Read.Empty(),
				incWrite:    !e.Write.Empty(),
			}
		case core.EvGranted:
			if o := open[e.Req]; o != nil && o.incremental && !o.started {
				o.start, o.started = e.T, true
			}
		case core.EvSatisfied:
			if o := open[e.Req]; o != nil && !o.started {
				o.start, o.started = e.T, true
			}
		case core.EvCompleted, core.EvReadSegmentDone:
			if o := open[e.Req]; o != nil && o.started {
				d := int64(e.T - o.start)
				if o.incremental {
					if o.incRead && d > lr {
						lr = d
					}
					if o.incWrite && d > lw {
						lw = d
					}
				} else if o.kind == core.KindRead {
					if d > lr {
						lr = d
					}
				} else if d > lw {
					lw = d
				}
			}
			delete(open, e.Req)
		case core.EvCanceled:
			delete(open, e.Req)
		}
	}
	return lr, lw
}

// Walk runs seeded randomized episodes through the scenario — the "stress
// walk" mode for scopes beyond exhaustive reach. Every step runs the same
// checks as Explore; the first violation is returned with its replayable
// schedule. Deterministic for a fixed seed.
func Walk(sc *Scenario, opt Options, seed int64, episodes, maxSteps int) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Scenario: sc}
	rng := rand.New(rand.NewSource(seed))
	m := opt.M
	if m == 0 {
		m = len(sc.Templates)
	}
	for ep := 0; ep < episodes; ep++ {
		r, err := newRunner(sc)
		if err != nil {
			return res, err
		}
		var path []Action
		for steps := 0; maxSteps == 0 || steps < maxSteps; steps++ {
			enab, _ := r.enabled()
			if len(enab) == 0 {
				if !r.terminal() {
					v := &Violation{Kind: VDeadlock, Step: len(path),
						Details: []string{"no action enabled but templates remain unfinished"}}
					v.attach(sc, path)
					res.Violation = v
					return res, nil
				}
				res.Stats.Terminals++
				if opt.CheckBounds {
					if v := checkBounds(r, m); v != nil {
						v.attach(sc, path)
						res.Violation = v
						return res, nil
					}
				}
				break
			}
			a := enab[rng.Intn(len(enab))]
			if err := r.apply(a); err != nil {
				return res, fmt.Errorf("mc: internal: walk applying %s: %w", a, err)
			}
			path = append(path, a)
			res.Stats.States++
			if len(path) > res.Stats.MaxDepthSeen {
				res.Stats.MaxDepthSeen = len(path)
			}
			if v := r.checkStep(); v != nil {
				v.attach(sc, path)
				res.Violation = v
				return res, nil
			}
		}
	}
	return res, nil
}
