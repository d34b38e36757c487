package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"github.com/rtsync/rwrnlp/internal/core"
)

// The flight recorder is the black box of the runtime lock: a bounded,
// lock-free ring of the most recent protocol events per shard, kept flat and
// JSON-serializable so a dump taken at an anomaly (stall-watchdog firing,
// bound violation, operator request via /debug/rnlp/flight) can be stored,
// round-tripped, and rendered offline — as a Perfetto trace or as a
// top-blocking-chains report via cmd/flightdump.
//
// Concurrency contract: each shard ring has a single logical writer (the
// shard delivers events under its mutex; the simulator is single-threaded),
// while Dump may run concurrently from any goroutine. Records are therefore
// published whole through atomic pointers — a reader sees either a complete
// record or an older complete record, never a torn one. When the recorder is
// disabled (nil), the hook on the event path is one pointer test.

// FlightRecord is one recorded protocol event, flattened for JSON. Times are
// in the emitting plane's units (shard ticks for the runtime lock, simulated
// nanoseconds for the simulator). Tag is stringified so arbitrary caller
// tags survive serialization.
type FlightRecord struct {
	Seq   uint64 `json:"seq"`
	Shard int    `json:"shard"`
	// Node names the recording node in merged multi-node dumps (see
	// MergeFlightDumps); live recorders leave it empty.
	Node        string  `json:"node,omitempty"`
	T           int64   `json:"t"`
	Type        string  `json:"type"`
	Req         int64   `json:"req"`
	Kind        string  `json:"kind"`
	Resources   []int   `json:"resources,omitempty"`
	Read        []int   `json:"read,omitempty"`
	Write       []int   `json:"write,omitempty"`
	Pair        int64   `json:"pair,omitempty"`
	Incremental bool    `json:"incremental,omitempty"`
	Tag         string  `json:"tag,omitempty"`
	Blockers    []int64 `json:"blockers,omitempty"`
}

// flightEventTypes maps the stable EventType strings back to their values
// for dump replay.
var flightEventTypes = map[string]core.EventType{}

func init() {
	for t := core.EvIssued; t <= core.EvReadSegmentDone; t++ {
		flightEventTypes[t.String()] = t
	}
}

func setToInts(s core.ResourceSet) []int {
	ids := s.IDs()
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

func intsToSet(ids []int) core.ResourceSet {
	rs := make([]core.ResourceID, len(ids))
	for i, id := range ids {
		rs[i] = core.ResourceID(id)
	}
	return core.NewResourceSet(rs...)
}

// Event reconstructs the core event this record captured. The Tag comes back
// as its string rendering (or nil if the original had none).
func (r FlightRecord) Event() core.Event {
	e := core.Event{
		T:           core.Time(r.T),
		Type:        flightEventTypes[r.Type],
		Req:         core.ReqID(r.Req),
		Resources:   intsToSet(r.Resources),
		Read:        intsToSet(r.Read),
		Write:       intsToSet(r.Write),
		Pair:        core.ReqID(r.Pair),
		Incremental: r.Incremental,
	}
	if r.Kind == core.KindWrite.String() {
		e.Kind = core.KindWrite
	}
	if r.Tag != "" {
		e.Tag = r.Tag
	}
	if len(r.Blockers) > 0 {
		e.Blockers = make([]core.ReqID, len(r.Blockers))
		for i, b := range r.Blockers {
			e.Blockers[i] = core.ReqID(b)
		}
	}
	return e
}

// flightRing is one shard's bounded record ring.
type flightRing struct {
	slots []atomic.Pointer[FlightRecord]
	next  atomic.Uint64 // next slot index to write (monotonic, mod len)
}

// DefaultFlightDepth is the per-shard ring capacity when none is given.
const DefaultFlightDepth = 1024

// FlightRecorder keeps the last perShard events of each shard. It is safe to
// dump concurrently with recording; record delivery itself must be
// serialized per shard (the shard's own lock already does this).
type FlightRecorder struct {
	rings []flightRing
	gseq  atomic.Uint64
	drops atomic.Uint64 // malformed deliveries (out-of-range shard)
}

// tagString renders a caller-supplied event tag. Trace IDs — the common case
// and the only one on the contended hot path — are plain strings and take the
// allocation-free type assertion; anything else falls back to fmt.Sprint.
func tagString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// NewFlightRecorder creates a recorder for nshards shards with perShard ring
// slots each (<= 0 selects DefaultFlightDepth).
func NewFlightRecorder(nshards, perShard int) *FlightRecorder {
	if nshards < 1 {
		nshards = 1
	}
	if perShard <= 0 {
		perShard = DefaultFlightDepth
	}
	f := &FlightRecorder{rings: make([]flightRing, nshards)}
	for i := range f.rings {
		f.rings[i].slots = make([]atomic.Pointer[FlightRecord], perShard)
	}
	return f
}

// Shards reports the number of shard rings.
func (f *FlightRecorder) Shards() int { return len(f.rings) }

// Record stores one event into the given shard's ring and returns the
// record's global sequence number (0 if the shard is out of range) — what a
// metric exemplar carries to link a tail sample to its flight-recorder
// window. Must be serialized per shard by the caller.
func (f *FlightRecorder) Record(shard int, e core.Event) uint64 {
	if shard < 0 || shard >= len(f.rings) {
		f.drops.Add(1)
		return 0
	}
	rec := &FlightRecord{
		Seq:         f.gseq.Add(1),
		Shard:       shard,
		T:           int64(e.T),
		Type:        e.Type.String(),
		Req:         int64(e.Req),
		Kind:        e.Kind.String(),
		Resources:   setToInts(e.Resources),
		Read:        setToInts(e.Read),
		Write:       setToInts(e.Write),
		Pair:        int64(e.Pair),
		Incremental: e.Incremental,
	}
	if e.Tag != nil {
		rec.Tag = tagString(e.Tag)
	}
	if len(e.Blockers) > 0 {
		rec.Blockers = make([]int64, len(e.Blockers))
		for i, b := range e.Blockers {
			rec.Blockers[i] = int64(b)
		}
	}
	ring := &f.rings[shard]
	idx := ring.next.Add(1) - 1
	ring.slots[idx%uint64(len(ring.slots))].Store(rec)
	return rec.Seq
}

// FlightDump is a stable snapshot of the recorder: all retained records in
// global capture order.
type FlightDump struct {
	Version int            `json:"version"`
	Shards  int            `json:"shards"`
	Records []FlightRecord `json:"records"`
}

// flightDumpVersion identifies the dump schema.
const flightDumpVersion = 1

// Dump snapshots every retained record, ordered by capture sequence. Safe to
// call concurrently with Record.
func (f *FlightRecorder) Dump() FlightDump {
	d := FlightDump{Version: flightDumpVersion, Shards: len(f.rings)}
	for i := range f.rings {
		for j := range f.rings[i].slots {
			if rec := f.rings[i].slots[j].Load(); rec != nil {
				d.Records = append(d.Records, *rec)
			}
		}
	}
	sort.Slice(d.Records, func(a, b int) bool { return d.Records[a].Seq < d.Records[b].Seq })
	return d
}

// WriteJSON serializes the dump (one indented JSON document).
func (d FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ParseFlightDump reads a dump produced by WriteJSON.
func ParseFlightDump(r io.Reader) (FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return FlightDump{}, fmt.Errorf("flight dump: %w", err)
	}
	if d.Version != flightDumpVersion {
		return FlightDump{}, fmt.Errorf("flight dump: unsupported version %d", d.Version)
	}
	for i, rec := range d.Records {
		if _, ok := flightEventTypes[rec.Type]; !ok {
			return FlightDump{}, fmt.Errorf("flight dump: record %d has unknown event type %q", i, rec.Type)
		}
	}
	return d, nil
}

// Events reconstructs the recorded core events in capture order.
func (d FlightDump) Events() []core.Event {
	evs := make([]core.Event, len(d.Records))
	for i, rec := range d.Records {
		evs[i] = rec.Event()
	}
	return evs
}

// WritePerfetto renders the dump as a Perfetto/Chrome trace. Record times
// are used verbatim as microsecond timestamps (TimeDiv 1): for the runtime
// plane these are shard ticks, which preserves ordering and relative spans.
// A ring dump usually starts mid-lifecycle; slices whose begin fell off the
// ring are dropped, and still-open slices are closed at the last record's
// time (marked by the builder).
func (d FlightDump) WritePerfetto(w io.Writer) error {
	tb := NewTraceBuilder()
	tb.TimeDiv = 1
	for _, e := range d.Events() {
		tb.Observe(e)
	}
	_, err := tb.WriteTo(w)
	return err
}

// attribute replays the dump through a fresh Attributor. Requests whose
// issuance fell off the ring are invisible to it and are skipped.
func (d FlightDump) attribute(topK int) *Attributor {
	a := NewAttributor(NewMetrics(), topK)
	pl := NewPipeline(Sinks{Attribution: a})
	for _, e := range d.Events() {
		pl.Observe(e)
	}
	return a
}

// Attribution is the attribution report of the dump's replay — the offline
// path used by cmd/flightdump.
func (d FlightDump) Attribution(topK int) AttributionReport {
	return d.attribute(topK).Report()
}

// MergeFlightDumps merges per-node flight dumps into one cluster dump, the
// offline join behind `flightdump node1.json node2.json ...`. Each dump's
// shards are offset into a disjoint range, its request IDs (Req, Pair,
// Blockers) are remapped to req*len(dumps)+nodeIdx so IDs never collide
// across nodes, and every record is labeled with its node's name (names[i]
// pairs with dumps[i]; missing names stay empty). Records are ordered by
// (T, node, original seq) and renumbered — per-node T is logical shard ticks
// on independent clocks, so cross-node ordering at equal T is arbitrary but
// deterministic; requests join across nodes by Tag (the distributed trace
// ID), not by time. Seq-based joins (exemplar flight_seq) are only meaningful
// against the single-node dump they were minted in.
func MergeFlightDumps(dumps []FlightDump, names []string) FlightDump {
	n := len(dumps)
	merged := FlightDump{Version: flightDumpVersion}
	type annotated struct {
		rec  FlightRecord
		node int
		seq  uint64
	}
	var all []annotated
	shardBase := 0
	for i, d := range dumps {
		var name string
		if i < len(names) {
			name = names[i]
		}
		for _, r := range d.Records {
			orig := r.Seq
			r.Node = name
			r.Shard += shardBase
			r.Req = r.Req*int64(n) + int64(i)
			if r.Pair != 0 {
				r.Pair = r.Pair*int64(n) + int64(i)
			}
			if len(r.Blockers) > 0 {
				bs := make([]int64, len(r.Blockers))
				for j, b := range r.Blockers {
					bs[j] = b*int64(n) + int64(i)
				}
				r.Blockers = bs
			}
			all = append(all, annotated{rec: r, node: i, seq: orig})
		}
		shards := d.Shards
		if shards < 1 {
			shards = 1
		}
		shardBase += shards
	}
	merged.Shards = shardBase
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].rec.T != all[b].rec.T {
			return all[a].rec.T < all[b].rec.T
		}
		if all[a].node != all[b].node {
			return all[a].node < all[b].node
		}
		return all[a].seq < all[b].seq
	})
	merged.Records = make([]FlightRecord, len(all))
	for i := range all {
		all[i].rec.Seq = uint64(i + 1)
		merged.Records[i] = all[i].rec
	}
	return merged
}

// FilterTag returns the subset of the dump whose records carry the given tag
// — every event of a tagged request is stamped, so this is the request's full
// retained lifecycle on each node (one per hop for a distributed trace ID).
func (d FlightDump) FilterTag(tag string) FlightDump {
	out := FlightDump{Version: d.Version, Shards: d.Shards}
	for _, r := range d.Records {
		if r.Tag == tag {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// ResolveSeq resolves a flight sequence number — as carried by a metric
// exemplar — into the record it names and the blocking chain of that
// record's request, reconstructed by replaying the dump. This is the
// exemplar → attribution leg of the telemetry loop: scrape OpenMetrics, take
// a tail bucket's flight_seq, resolve it here (or via `flightdump -seq`).
//
// It fails if the sequence is no longer retained (the ring wrapped) or if
// the request's lifecycle is too truncated in the dump to attribute.
func (d FlightDump) ResolveSeq(seq uint64) (FlightRecord, BlockChain, error) {
	var rec *FlightRecord
	for i := range d.Records {
		if d.Records[i].Seq == seq {
			rec = &d.Records[i]
			break
		}
	}
	if rec == nil {
		return FlightRecord{}, BlockChain{}, fmt.Errorf("flight seq %d not retained (ring wrapped or recorder restarted)", seq)
	}
	chain, ok := d.attribute(1).Chain(core.ReqID(rec.Req))
	if !ok {
		return *rec, BlockChain{}, fmt.Errorf("flight seq %d: request %d has no attributable chain in the dump (lifecycle truncated by the ring)", seq, rec.Req)
	}
	return *rec, chain, nil
}
