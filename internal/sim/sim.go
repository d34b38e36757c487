// Package sim is a discrete-event multiprocessor real-time scheduling
// simulator purpose-built to evaluate the R/W RNLP and its baselines under
// the paper's exact analysis assumptions (Sec. 2): clustered job-level
// fixed-priority scheduling, zero-overhead protocol invocations, and a
// progress mechanism — non-preemptive spinning (Rule S1) or priority
// donation (Sec. 3.8) — establishing Properties P1 and P2.
//
// The real platform the paper targets (an RTOS such as LITMUS^RT on a
// multicore machine) is substituted by this simulator deliberately: a Go
// process cannot honor real-time priorities (the runtime scheduler and GC
// obscure them), whereas the simulator realizes the paper's idealized model
// exactly, so every analytical bound must hold with equality-or-better, not
// merely approximately. See DESIGN.md, "Substitutions".
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rtsync/rwrnlp/internal/core"
	"github.com/rtsync/rwrnlp/internal/sched"
	"github.com/rtsync/rwrnlp/internal/simtime"
	"github.com/rtsync/rwrnlp/internal/taskmodel"
)

// Progress selects the progress mechanism (and with it, how jobs wait).
type Progress int

const (
	// SpinNP: Rule S1 — a job with an incomplete request executes
	// non-preemptively, busy-waiting until satisfied. Implies P1/P2
	// (Lemma 1).
	SpinNP Progress = iota
	// Donation: suspension-based waiting with priority donation as the
	// progress mechanism (Sec. 3.8); analyzed s-obliviously. Implies P1/P2
	// (Lemma 7).
	Donation
	// Inheritance: suspension-based waiting with plain priority
	// inheritance — lock holders inherit the highest priority among the
	// jobs transitively blocked on their resources, with no issuance gate
	// and no donors. This mechanism does NOT establish Properties P1/P2
	// (arbitrarily many requesters per cluster; a holder boosted only by
	// low-priority waiters can still be preempted), and the paper's bounds
	// are not claimed under it. It exists as the negative control of
	// experiment E17: run it to watch P1/P2 violations appear and the
	// Theorem 1/2 bounds break.
	Inheritance
)

func (p Progress) String() string {
	switch p {
	case Donation:
		return "donation"
	case Inheritance:
		return "inheritance"
	default:
		return "spin-np"
	}
}

// Overheads models platform costs, which the paper's analysis assumes away
// (Sec. 2: "locking protocol invocations take zero time") and notes "can be
// factored into the final analysis". The simulator charges them as follows:
//
//   - Invocation: each critical section is entered and exited through the
//     protocol, so every CS chunk is extended by 2·Invocation (lock-path
//     entry + release) — the classical CS-inflation accounting;
//   - CtxSwitch: charged to a job's current chunk each time it (re)gains a
//     processor (dispatch latency, cache-affinity loss).
//
// Analysis-side, use analysis.Bounds.Inflate to obtain the matching
// overhead-aware L^r/L^w; the Theorems then hold against the inflated
// bounds (TestOverheadBounds).
type Overheads struct {
	Invocation simtime.Time
	CtxSwitch  simtime.Time
}

// Config parameterizes one simulation run.
type Config struct {
	System    *taskmodel.System
	Policy    sched.Policy
	Progress  Progress
	Protocol  Protocol
	RSM       core.Options // placeholder mode etc. (RW-RNLP only)
	Overheads Overheads

	Horizon     simtime.Time
	JobsPerTask int   // 0 = release jobs until the horizon
	Seed        int64 // sporadic jitter and upgrade decisions

	CheckInvariants bool // verify P1/P2 and structural invariants per event
	RecordRequests  bool // retain the per-request log in the Result
	RecordSchedule  bool // retain per-CPU occupancy slices (RenderGantt)

	// Trace receives every protocol event of the run (e.g. a
	// trace.Recorder, for post-hoc checking with trace.Check).
	Trace core.Observer

	// Observers receive every protocol event alongside Trace — attach an
	// obs.Pipeline (metrics, bound monitor, attribution, …) or exporters
	// here. All of them are composed with core.MultiObserver.
	Observers []core.Observer
}

// Simulator executes one configuration. Create with New, run with Run.
type Simulator struct {
	cfg Config
	sys *taskmodel.System
	eng simtime.Engine
	rsm *core.RSM
	pm  protoMap
	rng *rand.Rand

	clusters []*cluster
	nextJob  int

	notif []core.Event

	res        Result
	lastAcct   simtime.Time
	csIntegral int64          // Σ holders·dt while ≥1 holder (CS parallelism)
	csBusy     int64          // Σ dt while ≥1 holder
	lastSlice  map[[2]int]int // (cluster,cpu) -> index of its latest schedule slice
}

type cluster struct {
	id      int
	c       int
	members []*job // pending jobs
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if err := cfg.System.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %d", cfg.Horizon)
	}
	s := &Simulator{
		cfg: cfg,
		sys: cfg.System,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.pm = buildProtoMap(cfg.Protocol, cfg.System)
	opts := cfg.RSM
	if cfg.Protocol != ProtoRWRNLP {
		opts = core.Options{} // baselines have no placeholder variants
	}
	s.rsm = core.NewRSM(s.pm.rsmSpec(cfg.System), opts)
	sinks := []core.Observer{core.ObserverFunc(func(e core.Event) {
		switch e.Type {
		case core.EvSatisfied, core.EvGranted, core.EvCanceled:
			s.notif = append(s.notif, e)
		}
	}), cfg.Trace}
	sinks = append(sinks, cfg.Observers...)
	s.rsm.SetObserver(core.MultiObserver(sinks...))
	for i := 0; i < cfg.System.Clusters(); i++ {
		s.clusters = append(s.clusters, &cluster{id: i, c: cfg.System.ClusterSize})
	}
	return s, nil
}

// Run executes the simulation and returns its result. Run must be called at
// most once.
func (s *Simulator) Run() *Result {
	s.res.Tasks = make([]TaskStats, len(s.sys.Tasks))
	for i := range s.res.Tasks {
		s.res.Tasks[i].Task = s.sys.Tasks[i].ID
	}
	for ti, t := range s.sys.Tasks {
		ti, t := ti, t
		s.eng.At(t.Offset, func(now simtime.Time) { s.onRelease(now, ti, 0) })
	}
	s.eng.Run(s.cfg.Horizon)
	s.account(s.cfg.Horizon)
	s.res.Horizon = s.cfg.Horizon
	if s.csBusy > 0 {
		s.res.CSParallelism = float64(s.csIntegral) / float64(s.csBusy)
	}
	if s.cfg.Horizon > 0 {
		s.res.CSUtilization = float64(s.csBusy) / float64(s.cfg.Horizon)
	}
	return &s.res
}

// ---------------------------------------------------------------------------
// Event handlers

func (s *Simulator) onRelease(t simtime.Time, taskIdx, jobIdx int) {
	s.account(t)
	tk := s.sys.Tasks[taskIdx]
	j := &job{
		id:      s.nextJob,
		task:    tk,
		jobIdx:  jobIdx,
		release: t,
		absDL:   t + tk.Deadline,
		cluster: tk.Cluster,
		cpu:     -1,
		scale:   1,
	}
	if tk.ExecVar > 0 {
		j.scale = 1 - s.rng.Float64()*tk.ExecVar
	}
	s.nextJob++
	j.prio = sched.JobPrio(s.cfg.Policy, tk.ID, tk.Priority, j.absDL)
	cl := s.clusters[tk.Cluster]
	cl.members = append(cl.members, j)
	s.res.Jobs++
	s.res.Tasks[taskIdx].Jobs++

	// Schedule the next sporadic release.
	if s.cfg.JobsPerTask == 0 || jobIdx+1 < s.cfg.JobsPerTask {
		sep := tk.Period
		if tk.Jitter > 0 {
			sep += simtime.Time(s.rng.Int63n(int64(tk.Jitter) + 1))
		}
		next := t + sep
		if next <= s.cfg.Horizon {
			s.eng.At(next, func(now simtime.Time) { s.onRelease(now, taskIdx, jobIdx+1) })
		}
	}

	s.enterSegment(t, j)
	if s.cfg.Progress == Donation {
		s.donationOnRelease(t, j)
	}
	s.dispatch(t)
	s.check(t)
}

// onChunkEnd fires when a running job finishes its current chunk of work.
func (s *Simulator) onChunkEnd(t simtime.Time, j *job) {
	s.account(t)
	j.endEv = nil
	j.remaining = 0
	switch j.what {
	case chCompute:
		s.nextSegment(t, j)

	case chCS:
		s.completeRequest(t, j)
		s.nextSegment(t, j)

	case chReadCS:
		seg := j.seg()
		// End of the optimistic read segment (Sec. 3.6).
		j.phase = phWaitWrite
		if err := s.rsm.FinishRead(core.Time(t), j.upg, j.upgTake); err != nil {
			panic(fmt.Sprintf("sim: FinishRead: %v", err))
		}
		if !j.upgTake {
			// Pair done: no write access needed.
			s.endRequest(t, j)
			s.nextSegment(t, j)
			break
		}
		j.waitStart = t
		s.drain(t) // may contain the write half's satisfaction
		if j.phase == phWaitWrite {
			// Still waiting for the write half.
			if s.cfg.Progress == SpinNP {
				j.spinning = true
			} else {
				s.suspend(t, j)
			}
		}
		_ = seg

	case chWriteCS:
		s.completeRequestID(t, j, j.upg.WriteID)
		s.nextSegment(t, j)

	case chIncHold:
		seg := j.seg()
		if j.incStep+1 < len(seg.Steps) {
			j.incStep++
			step := seg.Steps[j.incStep]
			if len(step.Acquire) == 0 {
				s.startChunk(t, j, chIncHold, step.Hold)
				break
			}
			j.phase = phWaitGrant
			j.waitStart = t
			granted, err := s.rsm.Acquire(core.Time(t), j.reqID, s.pm.toSame(step.Acquire))
			if err != nil {
				panic(fmt.Sprintf("sim: Acquire: %v", err))
			}
			s.drain(t)
			if granted && j.phase == phWaitGrant {
				j.curAcq += 0
				j.phase = phNone
				s.startChunk(t, j, chIncHold, step.Hold)
			} else if j.phase == phWaitGrant {
				if s.cfg.Progress == SpinNP {
					j.spinning = true
				} else {
					s.suspend(t, j)
				}
			}
		} else {
			s.completeRequest(t, j)
			s.nextSegment(t, j)
		}
	}
	s.dispatch(t)
	s.check(t)
}

// ---------------------------------------------------------------------------
// Program interpretation

func (s *Simulator) nextSegment(t simtime.Time, j *job) {
	j.segIdx++
	s.enterSegment(t, j)
}

// enterSegment prepares the job's next segment. Compute segments become
// chunks immediately; request segments park the job at an issue point, which
// dispatch processes when the job is scheduled (a program can only issue
// while executing).
func (s *Simulator) enterSegment(t simtime.Time, j *job) {
	if j.segIdx >= len(j.task.Segments) {
		s.finishJob(t, j)
		return
	}
	seg := j.seg()
	if seg.Kind == taskmodel.SegCompute {
		s.startChunk(t, j, chCompute, seg.Duration)
		return
	}
	j.phase = phAtIssue
}

// startChunk begins a piece of work; dispatch schedules its completion while
// the job is running. The job's per-release execution-time scale (ExecVar)
// applies here: declared durations are worst cases, actual work may be
// shorter.
func (s *Simulator) startChunk(t simtime.Time, j *job, what chunkWhat, dur simtime.Time) {
	if j.scale < 1 && dur > 0 {
		dur = simtime.Time(float64(dur) * j.scale)
		if dur < 1 {
			dur = 1
		}
	}
	if what != chCompute {
		dur += 2 * s.cfg.Overheads.Invocation
	}
	j.phase = phChunk
	j.what = what
	j.remaining = dur
	j.spinning = false
	_ = t
}

func (s *Simulator) finishJob(t simtime.Time, j *job) {
	if j.endEv != nil {
		j.endEv.Cancel()
		j.endEv = nil
	}
	j.state = jsFinished
	j.cpu = -1
	j.phase = phNone
	cl := s.clusters[j.cluster]
	for i, x := range cl.members {
		if x == j {
			cl.members = append(cl.members[:i], cl.members[i+1:]...)
			break
		}
	}
	s.res.Finished++
	ts := &s.res.Tasks[taskIndex(s.sys, j.task)]
	resp := t - j.release
	if resp > ts.MaxResp {
		ts.MaxResp = resp
	}
	if t > j.absDL {
		ts.Misses++
		s.res.Misses++
	}
	s.updateTaskBlocking(ts, j)
}

func (s *Simulator) updateTaskBlocking(ts *TaskStats, j *job) {
	if j.piSpin > ts.MaxPiSpin {
		ts.MaxPiSpin = j.piSpin
	}
	if j.piSOb > ts.MaxPiSOb {
		ts.MaxPiSOb = j.piSOb
	}
	if j.piSAware > ts.MaxPiSAw {
		ts.MaxPiSAw = j.piSAware
	}
	if j.sBlock > ts.MaxSBlock {
		ts.MaxSBlock = j.sBlock
	}
	if j.piSpin > s.res.MaxPiSpin {
		s.res.MaxPiSpin = j.piSpin
	}
	if j.piSOb > s.res.MaxPiSOb {
		s.res.MaxPiSOb = j.piSOb
	}
	if j.piSAware > s.res.MaxPiSAw {
		s.res.MaxPiSAw = j.piSAware
	}
	if j.sBlock > s.res.MaxSBlock {
		s.res.MaxSBlock = j.sBlock
	}
}

func taskIndex(sys *taskmodel.System, tk *taskmodel.Task) int {
	for i, t := range sys.Tasks {
		if t == tk {
			return i
		}
	}
	panic("sim: task not in system")
}

// ---------------------------------------------------------------------------
// Request issuance and completion

// issueNow issues the request of the job's current segment. The job is at an
// issue point and (for spin) scheduled, or (for donation) among the c
// highest-priority pending jobs of its cluster.
func (s *Simulator) issueNow(t simtime.Time, j *job) {
	seg := j.seg()
	j.issueT = t
	j.waitStart = t
	j.curAcq = 0
	j.hasReq = true
	j.incStep = 0
	j.inUpgrade = false

	if s.cfg.Progress == SpinNP {
		// Rule S1: non-preemptive from issuance through CS completion.
		j.nonpreempt = true
	}

	r2, w2 := s.pm.mapRequest(seg.Read, seg.Write)
	j.mappedRead, j.mappedWrite = r2, w2
	// Classify by the TASK-LEVEL request kind, not the post-mapping one:
	// under the mutex baselines a read-only request is issued as a write,
	// and the whole point of the comparison is to expose what that costs
	// readers.
	j.reqIsWrite = seg.IsWrite() || seg.Kind == taskmodel.SegUpgrade

	if s.cfg.Protocol == ProtoNone {
		// Instant grant.
		j.holding = true
		s.startChunk(t, j, chCS, s.segCS(j, seg))
		return
	}

	switch {
	case seg.Kind == taskmodel.SegUpgrade && s.pm.fineGrained():
		j.upgTake = s.rng.Float64() < seg.UpgradeProb
		j.inUpgrade = true
		j.phase = phWaitSat
		h, err := s.rsm.IssueUpgradeable(core.Time(t), seg.Read, j)
		if err != nil {
			panic(fmt.Sprintf("sim: IssueUpgradeable: %v", err))
		}
		j.upg = h

	case seg.Kind == taskmodel.SegIncremental && s.pm.fineGrained():
		j.phase = phWaitGrant
		ir, iw := splitByMembership(seg.Steps[0].Acquire, seg.Read, seg.Write)
		id, err := s.rsm.IssueIncremental(core.Time(t), seg.Read, seg.Write, ir, iw, j)
		if err != nil {
			panic(fmt.Sprintf("sim: IssueIncremental: %v", err))
		}
		j.reqID = id

	default:
		// Plain request; baselines also route upgrades/incrementals here as
		// pessimistic single-shot writes.
		if seg.Kind == taskmodel.SegUpgrade {
			j.upgTake = s.rng.Float64() < seg.UpgradeProb
			r2, w2 = s.pm.mapRequest(nil, seg.Read)
		}
		if seg.Kind == taskmodel.SegIncremental {
			r2, w2 = s.pm.mapRequest(seg.Read, seg.Write)
			if s.cfg.Protocol == ProtoMutexRNLP || s.cfg.Protocol == ProtoGroupMutex {
				_, w2 = s.pm.mapRequest(seg.Read, seg.Write)
			}
		}
		j.phase = phWaitSat
		id, err := s.rsm.Issue(core.Time(t), r2, w2, j)
		if err != nil {
			panic(fmt.Sprintf("sim: Issue: %v", err))
		}
		j.reqID = id
	}

	s.drain(t)
	if j.phase == phWaitSat || j.phase == phWaitGrant {
		// Not satisfied synchronously: wait per the progress mechanism.
		if s.cfg.Progress == SpinNP {
			j.spinning = true
		} else {
			s.suspend(t, j)
		}
	}
	if s.cfg.Progress == Inheritance {
		s.recomputeInheritance()
	}
}

// segCS returns the critical-section length the job actually executes for a
// segment under a protocol without native upgrade/incremental support.
func (s *Simulator) segCS(j *job, seg *taskmodel.Segment) simtime.Time {
	switch seg.Kind {
	case taskmodel.SegUpgrade:
		cs := seg.ReadCS
		if j.upgTake {
			cs += seg.WriteCS
		}
		return cs
	case taskmodel.SegIncremental:
		return seg.CSLength()
	default:
		return seg.Duration
	}
}

// completeRequest finishes the critical section of the job's current plain
// request.
func (s *Simulator) completeRequest(t simtime.Time, j *job) {
	s.completeRequestID(t, j, j.reqID)
}

func (s *Simulator) completeRequestID(t simtime.Time, j *job, id core.ReqID) {
	if s.cfg.Protocol != ProtoNone {
		if err := s.rsm.Complete(core.Time(t), id); err != nil {
			panic(fmt.Sprintf("sim: Complete(%d): %v", id, err))
		}
	}
	s.endRequest(t, j)
	s.drain(t)
}

// endRequest clears request bookkeeping, records the acquisition, and ends
// any donation.
func (s *Simulator) endRequest(t simtime.Time, j *job) {
	seg := j.seg()
	if s.cfg.RecordRequests {
		s.res.recordAcq(ReqRecord{
			Task:    j.task.ID,
			Job:     j.jobIdx,
			Write:   j.reqIsWrite,
			Upgrade: seg.Kind == taskmodel.SegUpgrade,
			Incr:    seg.Kind == taskmodel.SegIncremental,
			Issue:   j.issueT,
			Acq:     j.curAcq,
			CS:      s.segCS(j, seg),
		})
	} else {
		s.res.recordAcqLight(j.reqIsWrite, j.curAcq)
	}
	j.hasReq = false
	j.holding = false
	j.nonpreempt = false
	j.inUpgrade = false
	j.phase = phNone
	if s.cfg.Progress == Inheritance {
		j.boosted = false
	}
	if j.donor != nil {
		d := j.donor
		d.donee = nil
		d.state = jsReady
		j.donor = nil
		j.boosted = false
	}
}

// drain processes queued RSM notifications (satisfactions, grants,
// cancellations) produced by the last protocol invocation.
func (s *Simulator) drain(t simtime.Time) {
	for i := 0; i < len(s.notif); i++ {
		s.handleNotif(t, s.notif[i])
	}
	s.notif = s.notif[:0]
}

func (s *Simulator) handleNotif(t simtime.Time, e core.Event) {
	j, ok := e.Tag.(*job)
	if !ok || j == nil || j.state == jsFinished {
		return
	}
	switch e.Type {
	case core.EvSatisfied:
		switch {
		case j.inUpgrade && e.Req == j.upg.ReadID && j.phase == phWaitSat:
			s.wake(t, j)
			s.recordUpgradeHalf(t, j)
			j.holding = true
			s.startChunk(t, j, chReadCS, j.seg().ReadCS)

		case j.inUpgrade && e.Req == j.upg.WriteID && (j.phase == phWaitWrite || j.phase == phWaitSat):
			// Either the write half was reached after FinishRead(…, true),
			// or it won the race outright (read half canceled).
			s.wake(t, j)
			s.recordUpgradeHalf(t, j)
			j.holding = true
			s.startChunk(t, j, chWriteCS, j.seg().WriteCS)

		case !j.inUpgrade && e.Req == j.reqID && j.phase == phWaitSat:
			s.wake(t, j)
			j.holding = true
			s.startChunk(t, j, chCS, s.segCS(j, j.seg()))

		case !j.inUpgrade && e.Req == j.reqID && j.phase == phWaitGrant:
			// Incremental request fully satisfied.
			s.wake(t, j)
			j.holding = true
			s.startChunk(t, j, chIncHold, j.seg().Steps[j.incStep].Hold)
		}

	case core.EvGranted:
		if e.Req == j.reqID && j.phase == phWaitGrant {
			s.wake(t, j)
			j.holding = true
			s.startChunk(t, j, chIncHold, j.seg().Steps[j.incStep].Hold)
		}

	case core.EvCanceled:
		// The read half of an upgrade lost the race; the matching
		// EvSatisfied of the write half drives the job.
	}
}

// recordUpgradeHalf records one half of an upgradeable request as a
// write-bounded acquisition (Sec. 3.6: an upgradeable request has a write
// request's worst-case blocking bounds, applying to each wait).
func (s *Simulator) recordUpgradeHalf(t simtime.Time, j *job) {
	if !s.cfg.RecordRequests {
		s.res.recordAcqLight(true, j.curAcq)
		j.curAcq = 0
		return
	}
	s.res.recordAcq(ReqRecord{
		Task:    j.task.ID,
		Job:     j.jobIdx,
		Write:   true,
		Upgrade: true,
		Issue:   j.issueT,
		Acq:     j.curAcq,
		CS:      j.seg().ReadCS,
	})
	j.curAcq = 0
}

// wake ends a wait: accumulates the waited time and restores runnability.
func (s *Simulator) wake(t simtime.Time, j *job) {
	j.curAcq += t - j.waitStart
	j.spinning = false
	j.phase = phNone
	if j.state == jsSuspended && j.donee == nil {
		j.state = jsReady
	}
}

func (s *Simulator) suspend(t simtime.Time, j *job) {
	if j.nonpreempt {
		panic("sim: non-preemptive job attempted to suspend")
	}
	if j.scheduled() {
		s.stopWork(t, j)
	}
	j.state = jsSuspended
}

// stopWork banks the progress of a running chunk and releases the CPU.
func (s *Simulator) stopWork(t simtime.Time, j *job) {
	if j.endEv != nil {
		j.remaining -= t - j.runSince
		if j.remaining < 0 {
			j.remaining = 0
		}
		j.endEv.Cancel()
		j.endEv = nil
	}
	j.cpu = -1
}

// ---------------------------------------------------------------------------
// Dispatching (clustered JLFP with effective priorities)

// dispatch assigns CPUs in every cluster and processes issue points until a
// fixed point: issuing can suspend a job (freeing a CPU) or satisfy it
// immediately (starting a chunk), both of which change the assignment.
func (s *Simulator) dispatch(t simtime.Time) {
	if s.cfg.Progress == Inheritance {
		s.recomputeInheritance()
	}
	for {
		s.assignCPUs(t)
		if !s.processIssuePoints(t) {
			break
		}
	}
	// Start completion events for running, progressing jobs.
	for _, cl := range s.clusters {
		for _, j := range cl.members {
			if j.scheduled() && j.phase == phChunk && j.endEv == nil {
				j.runSince = t
				jj := j
				j.endEv = s.eng.At(t+j.remaining, func(now simtime.Time) { s.onChunkEnd(now, jj) })
			}
		}
	}
}

// assignCPUs performs the JLFP assignment per cluster: non-preemptive
// running jobs are pinned (Rule S1); remaining CPUs go to the
// highest-effective-priority ready jobs.
func (s *Simulator) assignCPUs(t simtime.Time) {
	for _, cl := range s.clusters {
		var ready []*job
		for _, j := range cl.members {
			if j.ready() {
				ready = append(ready, j)
			}
		}
		var pinned, rest []*job
		for _, j := range ready {
			if j.nonpreempt && j.scheduled() {
				pinned = append(pinned, j)
			} else {
				rest = append(rest, j)
			}
		}
		sort.SliceStable(rest, func(a, b int) bool { return rest[a].effPrio().Less(rest[b].effPrio()) })
		slots := cl.c - len(pinned)
		if slots < 0 {
			panic("sim: more pinned jobs than CPUs")
		}
		if slots > len(rest) {
			slots = len(rest)
		}
		newSet := map[*job]bool{}
		for _, j := range pinned {
			newSet[j] = true
		}
		for _, j := range rest[:slots] {
			newSet[j] = true
		}
		// Transitions out.
		used := map[int]bool{}
		for _, j := range ready {
			if j.scheduled() && !newSet[j] {
				s.stopWork(t, j)
			}
		}
		for j := range newSet {
			if j.scheduled() {
				used[j.cpu] = true
			}
		}
		// Transitions in: assign free CPU indexes; each CPU gain charges the
		// context-switch overhead to the job's in-progress chunk.
		next := 0
		for _, j := range ready {
			if !newSet[j] || j.scheduled() {
				continue
			}
			for used[next] {
				next++
			}
			j.cpu = next
			used[next] = true
			if s.cfg.Overheads.CtxSwitch > 0 && j.phase == phChunk {
				j.remaining += s.cfg.Overheads.CtxSwitch
			}
		}
	}
}

// processIssuePoints issues requests for scheduled jobs parked at issue
// points, applying the donation gate (a job may issue only while among the c
// highest-priority pending jobs of its cluster — the structural requirement
// for Property P2 under suspension-based waiting). It also resumes gated
// jobs that have become eligible. Reports whether anything happened.
func (s *Simulator) processIssuePoints(t simtime.Time) bool {
	fired := false
	for _, cl := range s.clusters {
		for _, j := range snapshotJobs(cl.members) {
			switch {
			case j.phase == phAtIssue && j.scheduled():
				if s.cfg.Progress == Donation && !s.topCPending(cl, j) {
					j.phase = phWaitIssue
					s.suspend(t, j)
				} else {
					j.phase = phNone
					s.issueNow(t, j)
				}
				fired = true
			case j.phase == phWaitIssue && s.cfg.Progress == Donation && s.topCPending(cl, j):
				j.state = jsReady
				j.phase = phNone
				s.issueNow(t, j)
				fired = true
			}
		}
	}
	return fired
}

func snapshotJobs(js []*job) []*job {
	out := make([]*job, len(js))
	copy(out, js)
	return out
}

// topCPending reports whether j is among the c highest effective-priority
// pending jobs of its cluster.
func (s *Simulator) topCPending(cl *cluster, j *job) bool {
	higher := 0
	for _, o := range cl.members {
		if o != j && o.effPrio().Less(j.effPrio()) {
			higher++
		}
	}
	return higher < cl.c
}

// ---------------------------------------------------------------------------
// Priority donation (Sec. 3.8; Brandenburg & Anderson, EMSOFT'11)

// donationOnRelease applies the donation rule when jNew is released: if jNew
// enters the cluster's top-c pending set and thereby displaces a job with an
// incomplete request, jNew donates its priority to that job and suspends
// until the request completes. If the displaced job is itself a donor, jNew
// takes over its donation (donor substitution) and the old donor resumes.
func (s *Simulator) donationOnRelease(t simtime.Time, jNew *job) {
	cl := s.clusters[jNew.cluster]
	if len(cl.members) <= cl.c {
		return
	}
	pend := snapshotJobs(cl.members)
	sort.SliceStable(pend, func(a, b int) bool { return pend[a].effPrio().Less(pend[b].effPrio()) })
	inTop := false
	for _, j := range pend[:cl.c] {
		if j == jNew {
			inTop = true
			break
		}
	}
	if !inTop {
		return
	}
	displaced := pend[cl.c]
	switch {
	case displaced.hasReq:
		if displaced.donor != nil {
			// Donor substitution: release the old donor.
			old := displaced.donor
			old.donee = nil
			old.state = jsReady
		}
		jNew.donee = displaced
		displaced.donor = jNew
		displaced.boosted = true
		displaced.boost = jNew.prio
		jNew.state = jsSuspended

	case displaced.donee != nil:
		// Displacing a donor: take over its donation.
		donee := displaced.donee
		displaced.donee = nil
		displaced.state = jsReady
		jNew.donee = donee
		donee.donor = jNew
		donee.boost = jNew.prio
		jNew.state = jsSuspended
	}
}

// recomputeInheritance rebuilds the inherited effective priorities: every
// job holding resources inherits the highest base priority among the jobs
// currently waiting on a request that conflicts with what it holds
// (transitively, via iteration to a fixed point across waiting holders —
// chains are short because waiters hold nothing except partially granted
// incremental requests).
func (s *Simulator) recomputeInheritance() {
	// Collect holders and waiters.
	type entry struct {
		j *job
	}
	var holders, waiters []*job
	for _, cl := range s.clusters {
		for _, j := range cl.members {
			j.boosted = false
			if j.holding {
				holders = append(holders, j)
			}
			if j.hasReq && (j.phase == phWaitSat || j.phase == phWaitGrant || j.phase == phWaitWrite) {
				waiters = append(waiters, j)
			}
		}
	}
	if len(holders) == 0 || len(waiters) == 0 {
		return
	}
	conflicts := func(h, w *job) bool {
		// h holds (a superset of) its mapped sets; w waits for its mapped
		// sets. Conflict: any overlap where at least one side writes.
		for _, a := range w.mappedWrite {
			for _, b := range append(append([]core.ResourceID{}, h.mappedRead...), h.mappedWrite...) {
				if a == b {
					return true
				}
			}
		}
		for _, a := range w.mappedRead {
			for _, b := range h.mappedWrite {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	// Two rounds propagate through one level of holder-waits-on-holder
	// (incremental partial holders).
	for round := 0; round < 2; round++ {
		for _, h := range holders {
			best := h.effPrio()
			for _, w := range waiters {
				if w != h && conflicts(h, w) && w.effPrio().Less(best) {
					best = w.effPrio()
				}
			}
			if best.Less(h.prio) {
				h.boosted = true
				h.boost = best
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Accounting and invariants

// account integrates the per-job blocking metrics over [lastAcct, t).
func (s *Simulator) account(t simtime.Time) {
	dt := t - s.lastAcct
	if dt <= 0 {
		return
	}
	if s.cfg.RecordSchedule {
		s.recordSchedule(s.lastAcct, t)
	}
	holders := 0
	for _, cl := range s.clusters {
		for _, j := range cl.members {
			if j.holding {
				holders++
			}
			if j.spinning && j.scheduled() {
				j.sBlock += dt
			}
			if j.scheduled() {
				continue
			}
			higherReady, higherPending := 0, 0
			for _, o := range cl.members {
				if o == j || !o.prio.Less(j.prio) {
					continue
				}
				higherPending++
				if o.ready() {
					higherReady++
				}
			}
			if j.ready() && higherReady < cl.c {
				j.piSpin += dt // Def. 1
			}
			if higherPending < cl.c {
				j.piSOb += dt // Def. 5, s-oblivious
			}
			if higherReady < cl.c {
				j.piSAware += dt // Def. 5, s-aware
			}
		}
	}
	if holders > 0 {
		s.csIntegral += int64(holders) * int64(dt)
		s.csBusy += int64(dt)
	}
	s.lastAcct = t
}

// check verifies Properties P1/P2 and structural invariants after an event.
func (s *Simulator) check(t simtime.Time) {
	if !s.cfg.CheckInvariants || len(s.res.Violations) > 20 {
		return
	}
	for _, cl := range s.clusters {
		reqs := 0
		for _, j := range cl.members {
			if j.hasReq {
				reqs++
			}
			if j.holding && j.ready() && !j.scheduled() {
				s.res.Violations = append(s.res.Violations,
					fmt.Sprintf("t=%d: P1 violated: holder %s ready but not scheduled", t, j))
			}
			if j.nonpreempt && !j.scheduled() {
				s.res.Violations = append(s.res.Violations,
					fmt.Sprintf("t=%d: S1 violated: non-preemptive %s not scheduled", t, j))
			}
			if j.nonpreempt && s.cfg.Progress == Donation {
				s.res.Violations = append(s.res.Violations,
					fmt.Sprintf("t=%d: %s non-preemptive under donation", t, j))
			}
		}
		if reqs > cl.c {
			s.res.Violations = append(s.res.Violations,
				fmt.Sprintf("t=%d: P2 violated: %d incomplete requests in cluster %d (c=%d)", t, reqs, cl.id, cl.c))
		}
	}
}

// splitByMembership partitions ids into those appearing in read vs write.
func splitByMembership(ids, read, write []core.ResourceID) (r, w []core.ResourceID) {
	inW := map[core.ResourceID]bool{}
	for _, id := range write {
		inW[id] = true
	}
	for _, id := range ids {
		if inW[id] {
			w = append(w, id)
		} else {
			r = append(r, id)
		}
	}
	return r, w
}

// toSame is the identity mapping helper for fine-grained incremental asks.
func (pm protoMap) toSame(ids []core.ResourceID) []core.ResourceID { return ids }
