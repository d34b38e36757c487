package harness

import (
	"time"

	"github.com/rtsync/rwrnlp"
)

// Workload is one closed-loop traffic mix: Stream.Clients callers, each
// holding one request at a time and issuing its next only after releasing
// the previous one.
type Workload struct {
	Name   string
	Why    string // one line; BENCHMARK.json carries the same text
	Stream StreamSpec

	// Busy-spin critical-section lengths (the paper's L^r and L^w).
	ReadHold, WriteHold time.Duration

	// ReadSample times one read in N; writes are always timed. Only the
	// sub-microsecond read path needs it: two clock reads would double its
	// cost.
	ReadSample int
	// SpanSample records spans for one op in N in a traced window, so the
	// span buffers hold a whole window at any op rate.
	SpanSample int
	// WarmupOps is what each client runs before measuring starts. It is an
	// op count, not a time, so that setup_s reports work.
	WarmupOps int

	// Settle is real traffic the measured rig serves, unrecorded, between
	// its warm-up and its first window, for a program whose steady state
	// lies beyond any warm-up a set-up can afford five times over.
	Settle time.Duration

	// Options builds the lock for the lib_* workloads; nil marks a workload
	// that drives a spawned rnlpd through the client package.
	Options func() []rwrnlp.Option
}

// streamLen is the per-client stream length: long enough that cycling
// through it does not turn the mix into a short repeating pattern, small
// enough to sit in cache beside the lock's own state.
const streamLen = 1 << 14

func components(n, size int) [][]int {
	out := make([][]int, n)
	for c := range out {
		for r := 0; r < size; r++ {
			out[c] = append(out[c], c*size+r)
		}
	}
	return out
}

// The daemon's default option set (cmd/rnlpd): what lib_contended_observed
// adds to lib_contended, and what the traced ladder prices option by option.
func observedOptions() []rwrnlp.Option {
	return []rwrnlp.Option{
		rwrnlp.WithPlaceholders(),
		rwrnlp.WithMetrics(),
		rwrnlp.WithFlightRecorder(4096),
		rwrnlp.WithTimeSeries(time.Second, 0),
		rwrnlp.WithAttribution(10),
	}
}

func bareOptions() []rwrnlp.Option { return []rwrnlp.Option{rwrnlp.WithPlaceholders()} }

// contendedStream is shared by lib_contended and lib_contended_observed: the
// two must feed the lock byte-identical ops.
var contendedStream = StreamSpec{Clients: 8, Components: components(1, 8), MinFoot: 1, MaxFoot: 3, WritePct: 30, Len: streamLen}

// Workloads is the benchmark's fixed set. The "why" lines say which layers
// do the work and what each workload bypasses.
var Workloads = []Workload{
	{
		Name:       "lib_read_mostly",
		Why:        "2 goroutines, 16 resources in 4 components, 1% writes, no hold: the reader/writer fast paths do the work, the RSM almost none; bypass workload for slow-path, parking and wire changes",
		Stream:     StreamSpec{Clients: 2, Components: components(4, 4), MinFoot: 1, MaxFoot: 3, WritePct: 1, Len: streamLen},
		ReadSample: 16, SpanSample: 1024, WarmupOps: 400_000,
		Options: bareOptions,
	},
	{
		Name:   "lib_contended",
		Why:    "8 goroutines on one 8-resource component, 30% writes, 2/5 us holds, obs off: fast paths stay revoked, so RSM, flat combining and park hand-off do the work; the paper's scenario (Thm 1 vs 2)",
		Stream: contendedStream, ReadHold: 2 * time.Microsecond, WriteHold: 5 * time.Microsecond,
		ReadSample: 1, SpanSample: 32, WarmupOps: 4_000,
		Options: bareOptions,
	},
	{
		Name:   "lib_contended_observed",
		Why:    "same op stream as lib_contended plus rnlpd's default observability options: the event fan-out is on the hot path, so an obs saving shows here and nowhere else",
		Stream: contendedStream, ReadHold: 2 * time.Microsecond, WriteHold: 5 * time.Microsecond,
		ReadSample: 1, SpanSample: 32, WarmupOps: 4_000,
		Options: observedOptions,
	},
	{
		Name:       "svc_wire_closed",
		Why:        "real rnlpd on loopback driven by 2 client sessions, 30% writes, no hold: wire, client and service do the work, the lock is a rounding error; bypass workload for every in-process optimisation",
		Stream:     StreamSpec{Clients: 2, Components: components(4, 4), MinFoot: 1, MaxFoot: 2, WritePct: 30, Len: streamLen},
		ReadSample: 1, SpanSample: 1, WarmupOps: 500,
		// rnlpd's attribution ring (4096 chains) takes some 50 000 ops to
		// fill, and Server.waitAttrs scans it linearly for every traced
		// acquire that took a fast path: throughput falls by a third over
		// the first ~20 s of a daemon's life and is flat afterwards. The
		// windows measure the flat part.
		Settle: 16 * time.Second,
	},
}

// WorkloadByName finds a workload of the fixed set.
func WorkloadByName(name string) *Workload {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i]
		}
	}
	return nil
}
