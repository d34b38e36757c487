package harness

import "math/bits"

// Hist is a fixed-size log-linear latency histogram (16 sub-buckets per
// octave, values below 16 exact), so that recording never allocates and the
// generator's footprint stays constant whatever the op count. It is the
// harness's own, not obs.Histogram: the instrument must not change when the
// code under test does. One Hist belongs to one goroutine; Merge combines
// them once the goroutines have stopped.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	// 2^40 ns is 18 minutes, beyond any latency a run can contain.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	oct := bits.Len64(uint64(v)) - 1
	i := (oct-histSubBits+1)*histSub + int(v>>(oct-histSubBits))&(histSub-1)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds is the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	oct := i/histSub + histSubBits - 1
	width := int64(1) << (oct - histSubBits)
	lo = int64(1)<<oct + int64(i%histSub)*width
	return lo, lo + width
}

// Record adds one value in nanoseconds.
func (h *Hist) Record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Max is the largest recorded value, exact.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 < q ≤ 1), interpolated by rank inside
// its bucket, so the relative error stays below one sub-bucket (6.25 %) and
// the estimate moves continuously from run to run. An empty histogram gives 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			if hi > h.max+1 {
				hi = h.max + 1
			}
			return float64(lo) + float64(hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}
