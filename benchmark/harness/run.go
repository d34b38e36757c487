package harness

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsync/rwrnlp"
)

// Window is what one measured window saw.
type Window struct {
	Dur         time.Duration
	Ops         uint64
	Read, Write Hist
	Mallocs     uint64
	CPU         time.Duration
}

// OpsPerSec is the window's completed acquire→hold→release cycles per
// wall-clock second.
func (w *Window) OpsPerSec() float64 { return float64(w.Ops) / w.Dur.Seconds() }

// Measurement is one rig's measured windows plus the run-wide tallies.
type Measurement struct {
	Windows    []Window
	Attempted  uint64
	Failed     uint64 // ops that returned an error or tripped a witness
	Violations uint64 // correctness-witness violations alone
	PeakRSSMiB float64

	// Traced windows only.
	Release       Hist
	Spans         []Span
	Dropped       int
	CountersDelta map[string]int64
}

// witness is the per-resource holder witness every hold passes through. A
// read must find no writer inside, a write must find nobody. Readers count
// themselves in on a shard of their own (one per P, clients by parity), so
// the check adds no cross-core traffic to a read-only path whose cost the
// workload is there to measure; a writer counts itself in first and then
// looks at every reader shard. Both sides store before they load, so of two
// overlapping holders at least one sees the other.
type witness struct {
	writers []paddedCounter
	readers [witnessShards][]paddedCounter
}

const witnessShards = 2

type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

func newWitness(resources int) *witness {
	w := &witness{writers: make([]paddedCounter, resources)}
	for i := range w.readers {
		w.readers[i] = make([]paddedCounter, resources)
	}
	return w
}

// enter counts client g in on the op's resources and returns the violations
// it saw; leave counts it out again.
func (w *witness) enter(g int, op *Op) (violations int) {
	for _, res := range op.Footprint() {
		if !op.Write {
			w.readers[g%witnessShards][res].v.Add(1)
			if w.writers[res].v.Load() != 0 {
				violations++
			}
			continue
		}
		if w.writers[res].v.Add(1) != 1 {
			violations++
		}
		for i := range w.readers {
			if w.readers[i][res].v.Load() != 0 {
				violations++
			}
		}
	}
	return violations
}

func (w *witness) leave(g int, op *Op) {
	for _, res := range op.Footprint() {
		if op.Write {
			w.writers[res].v.Add(-1)
		} else {
			w.readers[g%witnessShards][res].v.Add(-1)
		}
	}
}

// maxWindows bounds the windows of one measurement (a run is at most 60 s
// of 6 s windows).
const maxWindows = 16

// worker is one client's tallies. The counters it bumps on every op sit
// inside the struct, fenced by padding, so that no two clients ever write
// the same cache line on the harness's account.
type worker struct {
	_          [64]byte
	ops        [maxWindows]uint64
	attempted  uint64
	failed     uint64
	violations uint64
	_          [64]byte

	read, write []Hist
	release     Hist
	spans       *SpanBuf
}

// session is one set-up program under measurement: a rig, the streams its
// clients replay, and the per-resource holder witness.
type session struct {
	w       *Workload
	rig     rig
	streams [][]Op
	sha     string
	witness *witness
	epoch   time.Time

	win    atomic.Int32 // current window; -1 stops the clients
	traced bool
	quick  bool
}

// Setup builds the program for a workload from the seed and warms it up:
// spec, lock or daemon + sessions, op streams, WarmupOps per client of real
// traffic. Its duration is the benchmark's setup_s.
func Setup(env *Env, w *Workload, seed int64, plan Plan, traced bool) (*session, error) {
	s := &session{w: w, epoch: time.Now(), traced: traced, quick: plan.Quick}
	s.streams = Generate(seed, w.Stream)
	s.sha = StreamSHA(s.streams)
	resources := 0
	for _, comp := range w.Stream.Components {
		resources += len(comp)
	}
	s.witness = newWitness(resources)
	if w.Options != nil {
		opts := w.Options()
		if traced {
			// The traced window reads the lock's counters; a registry
			// already present is reused by the library.
			opts = append(opts, rwrnlp.WithMetrics())
		}
		r, err := newLibRig(w.Stream, opts)
		if err != nil {
			return nil, err
		}
		s.rig = r
	} else {
		r, err := newSvcRig(env, w.Stream)
		if err != nil {
			return nil, err
		}
		s.rig = r
		if err := r.checkFence(); err != nil {
			r.close()
			return nil, err
		}
	}
	warmup := w.WarmupOps
	if plan.Quick {
		warmup /= 10
	}
	warm := s.run(0, 0, warmup, false)
	if warm.Failed > 0 {
		s.Close()
		return nil, fmt.Errorf("%s: %d of %d warm-up ops failed", w.Name, warm.Failed, warm.Attempted)
	}
	return s, nil
}

// SHA is the fingerprint of the op streams this session replays.
func (s *session) SHA() string { return s.sha }

// Close tears the program down and waits for its processes.
func (s *session) Close() {
	s.rig.close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// Measure runs n windows of length d with every client looping, after the
// workload's settle period.
func (s *session) Measure(n int, d time.Duration) *Measurement {
	if settle := s.settle(); settle > 0 {
		s.run(1, settle, 0, false)
	}
	return s.run(n, d, 0, s.traced)
}

func (s *session) settle() time.Duration {
	if s.quick {
		return s.w.Settle / 50
	}
	return s.w.Settle
}

// run drives the clients either for n timed windows or, when n is 0, for
// exactly opsEach ops per client (the warm-up). A traced run records spans
// and the program's counters before and after.
func (s *session) run(n int, d time.Duration, opsEach int, traced bool) *Measurement {
	clients := s.w.Stream.Clients
	workers := make([]*worker, clients)
	for g := range workers {
		wk := &worker{read: make([]Hist, max(n, 1)), write: make([]Hist, max(n, 1))}
		if traced {
			// Three spans and a root per sampled op; sized so that a window
			// at the prototype's rates fits with room to spare.
			wk.spans = NewSpanBuf(g, s.epoch, 1<<18)
		}
		workers[g] = wk
	}
	var before map[string]int64
	if traced {
		before = s.rig.counters()
	}
	s.win.Store(0)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(g, workers[g], uint64(opsEach))
		}()
	}
	m := &Measurement{Windows: make([]Window, n)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu, at := ms.Mallocs, s.rig.cpu(), time.Now()
	for w := 0; w < n; w++ {
		time.Sleep(d)
		// One reading closes window w and opens w+1; the clients switch in
		// the same instant, give or take the op each has in flight.
		if w == n-1 {
			s.win.Store(-1)
		} else {
			s.win.Store(int32(w + 1))
		}
		runtime.ReadMemStats(&ms)
		now, c := time.Now(), s.rig.cpu()
		m.Windows[w].Dur, m.Windows[w].Mallocs, m.Windows[w].CPU = now.Sub(at), ms.Mallocs-mallocs, c-cpu
		mallocs, cpu, at = ms.Mallocs, c, now
	}
	wg.Wait()
	for _, wk := range workers {
		for w := 0; w < n; w++ {
			m.Windows[w].Ops += wk.ops[w]
			m.Windows[w].Read.Merge(&wk.read[w])
			m.Windows[w].Write.Merge(&wk.write[w])
		}
		m.Attempted += wk.attempted
		m.Failed += wk.failed
		m.Violations += wk.violations
		m.Release.Merge(&wk.release)
		if wk.spans != nil {
			m.Spans = append(m.Spans, wk.spans.Spans()...)
			m.Dropped += wk.spans.Dropped
		}
	}
	if before != nil {
		after := s.rig.counters()
		m.CountersDelta = make(map[string]int64, len(after))
		for k, v := range after {
			m.CountersDelta[k] = v - before[k]
		}
		// Quiescent now: every request the lock issued must have retired.
		if issued, ok := after["protocol_issued"]; ok && issued != after["protocol_completed"]+after["protocol_canceled"] {
			m.Violations++
			m.Failed++
		}
	}
	if n > 0 {
		m.PeakRSSMiB, _ = peakRSSMiB(s.rig.pid())
	}
	return m
}

// client is one closed-loop caller: acquire, hold, release, repeat.
func (s *session) client(g int, wk *worker, limit uint64) {
	stream := s.streams[g]
	readEvery, spanEvery := uint64(s.w.ReadSample), uint64(s.w.SpanSample)
	now := func() int64 { return int64(time.Since(s.epoch)) }
	for i := uint64(0); limit == 0 || i < limit; i++ {
		w := int(s.win.Load())
		if w < 0 {
			return
		}
		op := &stream[i%uint64(len(stream))]
		spanned := wk.spans != nil && i%spanEvery == 0
		timed := spanned || op.Write || i%readEvery == 0
		var t0, t1, t2 int64
		if timed {
			t0 = now()
		}
		err := s.rig.acquire(g, op)
		if timed {
			t1 = now()
			if op.Write {
				wk.write[w].Record(t1 - t0)
			} else {
				wk.read[w].Record(t1 - t0)
			}
		}
		wk.attempted++
		if err != nil {
			wk.failed++
			continue
		}
		violations := s.hold(g, op)
		if spanned {
			t2 = now()
		}
		err = s.rig.release(g)
		if spanned {
			t3 := now()
			wk.release.Record(t3 - t2)
			sp := wk.spans
			root := sp.NewID()
			sp.Add(sp.NewID(), root, "acquire", t0, t1)
			sp.Add(sp.NewID(), root, "hold", t1, t2)
			sp.Add(sp.NewID(), root, "release", t2, t3)
			name := "read"
			if op.Write {
				name = "write"
			}
			sp.Add(root, 0, name, t0, t3)
		}
		if err != nil || violations > 0 {
			wk.failed++
			wk.violations += uint64(violations)
			continue
		}
		wk.ops[w]++
	}
}

// hold is the critical section: enter the holder witness, let the rig check
// what it was granted, busy-spin the configured length, leave. It returns the
// violations seen.
func (s *session) hold(g int, op *Op) int {
	violations := s.witness.enter(g, op) + s.rig.verify(g, op)
	d := s.w.ReadHold
	if op.Write {
		d = s.w.WriteHold
	}
	if d > 0 {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	s.witness.leave(g, op)
	return violations
}

// Median is the middle of the values (mean of the middle two when even).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// MedianOf applies f to every window and takes the median.
func (m *Measurement) MedianOf(f func(*Window) float64) float64 {
	v := make([]float64, len(m.Windows))
	for i := range m.Windows {
		v[i] = f(&m.Windows[i])
	}
	return Median(v)
}
