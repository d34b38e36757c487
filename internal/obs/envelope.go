package obs

import "github.com/rtsync/rwrnlp/internal/core"

// Envelope is the paper's acquisition-delay envelope for an M-processor
// system whose longest read and write critical sections are Lr and Lw: a
// read waits at most Lr+Lw (Theorem 1), a write at most (M−1)(Lr+Lw)
// (Theorem 2). It is the one place those formulas live; the bound monitor,
// the stall watchdog and the time series' bound utilisation all read it.
//
// As a consumer's configuration, an Envelope says which parts are given a
// priori: Analytic with Lr/Lw set (typically analysis.BoundsOf(sys), inflated
// for charged overheads) fixes the CS lengths, M > 0 fixes the processor
// count. over fills the rest from what the event stream has shown.
type Envelope struct {
	M        int
	Analytic bool // false: Lr/Lw are observed CS maxima
	Lr, Lw   int64
}

// ReadBound is Theorem 1's bound on a read's acquisition delay.
func (v Envelope) ReadBound() int64 { return v.Lr + v.Lw }

// WriteBound is Theorem 2's bound on a write's acquisition delay.
func (v Envelope) WriteBound() int64 { return int64(v.M-1) * (v.Lr + v.Lw) }

// Bound is the bound on a request of the given kind.
func (v Envelope) Bound(k core.Kind) int64 {
	if k == core.KindWrite {
		return v.WriteBound()
	}
	return v.ReadBound()
}

// over completes a configured envelope from a stream: unless v is analytic,
// Lr and Lw become the longest read and write critical sections observed so
// far; a non-positive M becomes the largest number of concurrently incomplete
// requests observed, which upper-bounds the paper's m for a system of pinned
// jobs. Observed maxima only grow, so a delay within the current envelope can
// never exceed a later one.
func (v Envelope) over(lr, lw int64, maxInflight int) Envelope {
	if !v.Analytic {
		v.Lr, v.Lw = lr, lw
	}
	if v.M <= 0 {
		v.M = maxInflight
	}
	return v
}

// alarm is the envelope a liveness consumer (watchdog, SLO series) compares
// against: (M−1) ≥ 1, so a solo writer still gets a finite envelope.
func (v Envelope) alarm() Envelope {
	if v.M < 2 {
		v.M = 2
	}
	return v
}
