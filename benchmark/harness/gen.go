// Package harness is the measuring instrument behind cmd/rnlpbench: seeded
// op-stream generation, closed-loop workload rigs over the library and over
// a live rnlpd, the single-goroutine per-layer ladder, and the span recorder
// the traced run uses. It only ever calls the public functions of the layers
// it measures.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
)

// Op is one generated lock request: a footprint of N resources (ascending)
// acquired for writing or for reading.
type Op struct {
	Write bool
	N     uint8
	Res   [3]int
}

// Footprint returns the op's resources.
func (o *Op) Footprint() []int { return o.Res[:o.N] }

// StreamSpec describes the op streams of one workload. Every footprint lies
// inside one component, so no generated request is cross-component.
type StreamSpec struct {
	Clients    int     // closed-loop callers, one stream each
	Components [][]int // resources by component
	MinFoot    int     // footprints are MinFoot..MaxFoot resources, 1 ≤ MinFoot ≤ MaxFoot ≤ 3
	MaxFoot    int
	WritePct   int // share of write requests, percent
	Len        int // ops per stream; callers cycle through it
}

// Generate derives the workload's op streams from the seed alone.
func Generate(seed int64, s StreamSpec) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]Op, s.Clients)
	for c := range streams {
		ops := make([]Op, s.Len)
		for i := range ops {
			comp := s.Components[rng.Intn(len(s.Components))]
			op := Op{Write: rng.Intn(100) < s.WritePct, N: uint8(s.MinFoot + rng.Intn(s.MaxFoot-s.MinFoot+1))}
			for k, j := range rng.Perm(len(comp))[:op.N] {
				op.Res[k] = comp[j]
			}
			sort.Ints(op.Res[:op.N])
			ops[i] = op
		}
		streams[c] = ops
	}
	return streams
}

// StreamSHA fingerprints the generated streams, so that two runs can prove
// they fed the program the same inputs.
func StreamSHA(streams [][]Op) string {
	h := sha256.New()
	for _, ops := range streams {
		for i := range ops {
			op := &ops[i]
			b := [5]byte{0, op.N, byte(op.Res[0]), byte(op.Res[1]), byte(op.Res[2])}
			if op.Write {
				b[0] = 1
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}
