package obs

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rtsync/rwrnlp/internal/core"
)

// BoundMonitor is the pipeline's falsification sink: it checks every
// acquisition delay against the paper's analytical envelopes — Theorem 1
// (read: ≤ L^r_max + L^w_max) and Theorem 2 (write: ≤ (m−1)(L^r_max +
// L^w_max)) — turning each run into an empirical falsification attempt.
//
// Two modes:
//
//   - Analytic: SetAnalytic supplies a-priori L^r_max/L^w_max (typically
//     analysis.BoundsOf(sys), inflated for charged overheads). Every
//     satisfaction is checked online against the fixed envelope.
//
//   - Observed-envelope (default): L^r_max/L^w_max are the maxima of the
//     critical-section lengths its pipeline has seen so far. Because that
//     envelope only grows, the monitor stores only candidate violations
//     (delay above the envelope at satisfaction time) and Report re-filters
//     them against the final envelope. This makes the monitor sound with zero
//     prior knowledge of the workload.
//
// Incremental requests (Sec. 3.7) are excluded: their issue-to-satisfaction
// span includes hold phases between grants, and Theorems 1–2 bound each
// *ask*, which the event stream does not delimit; they are tallied in
// SkippedIncremental. The write half of an upgradeable pair (Sec. 3.6) is
// checked per wait (see reqState.waitStart).
//
// The monitor keeps only its verdicts; its pipeline must see full request
// lifecycles.
type BoundMonitor struct {
	env    Envelope  // configuration: M, and Lr/Lw if analytic
	stream *Pipeline // set by NewPipeline; source of the observed envelope

	checked    int64
	skippedInc int64
	candidates []BoundViolation
}

// BoundViolation is one request whose measured acquisition delay exceeded
// its analytical bound.
type BoundViolation struct {
	Req   core.ReqID
	Kind  core.Kind
	T     core.Time // satisfaction time
	Delay int64
	Bound int64 // envelope at check time (analytic) or final (observed mode)
}

func (v BoundViolation) String() string {
	return fmt.Sprintf("req=%d (%s) satisfied t=%d: delay %d > bound %d",
		v.Req, v.Kind, v.T, v.Delay, v.Bound)
}

// NewBoundMonitor creates a monitor in observed-envelope mode for an
// m-processor system.
func NewBoundMonitor(m int) *BoundMonitor {
	return &BoundMonitor{env: Envelope{M: m}}
}

// SetAnalytic switches to analytic mode with the given L^r_max/L^w_max
// (inflate for charged overheads before calling — see analysis.Bounds).
// Call before any events are observed.
func (b *BoundMonitor) SetAnalytic(lr, lw int64) {
	b.env.Analytic, b.env.Lr, b.env.Lw = true, lr, lw
}

func (b *BoundMonitor) consume(t *transition) {
	r := t.state
	if t.Type != core.EvSatisfied || r == nil {
		return
	}
	if r.incremental {
		b.skippedInc++
		return
	}
	b.checked++
	if bound := b.stream.observed(b.env).Bound(r.kind); t.delay > bound {
		b.candidates = append(b.candidates, BoundViolation{
			Req: t.Req, Kind: r.kind, T: t.T, Delay: t.delay, Bound: bound,
		})
	}
}

// BoundReport is the monitor's verdict over everything observed so far.
type BoundReport struct {
	Envelope           // the envelope used: analytic inputs or observed maxima
	Checked            int64
	SkippedIncremental int64
	Violations         []BoundViolation
}

// Ok reports whether no violation survived.
func (r BoundReport) Ok() bool { return len(r.Violations) == 0 }

func (r BoundReport) String() string {
	mode := "observed-envelope"
	if r.Analytic {
		mode = "analytic"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb,
		"bound monitor (%s, m=%d): Lr=%d Lw=%d read-bound=%d write-bound=%d; checked=%d skipped-incremental=%d violations=%d\n",
		mode, r.M, r.Lr, r.Lw, r.ReadBound(), r.WriteBound(),
		r.Checked, r.SkippedIncremental, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  VIOLATION %s\n", v)
	}
	return sb.String()
}

// Report finalizes the verdict. In observed-envelope mode the stored
// candidates are re-filtered against the final observed envelope (sound
// because the envelope is monotone); in analytic mode they are returned
// as-is. The monitor may keep observing after Report.
func (b *BoundMonitor) Report() BoundReport {
	r := BoundReport{
		Envelope:           b.stream.observed(b.env),
		Checked:            b.checked,
		SkippedIncremental: b.skippedInc,
	}
	for _, v := range b.candidates {
		if bound := r.Bound(v.Kind); v.Delay > bound {
			v.Bound = bound
			r.Violations = append(r.Violations, v)
		}
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		if r.Violations[i].T != r.Violations[j].T {
			return r.Violations[i].T < r.Violations[j].T
		}
		return r.Violations[i].Req < r.Violations[j].Req
	})
	return r
}
