package client

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
)

// Distributed tracing (client side). Every Session.Acquire mints a trace ID
// and a per-hop span ID, carried on the wire (AcquireRequest.TraceID/SpanID);
// each serving node tags its runtime acquisition with the trace ID — so
// flight-recorder records, attribution chains, and OpenMetrics exemplars on
// that node join back to the trace — and returns its server spans in the
// grant. The client assembles the full causal trace: the root "acquire" span,
// a "queue" span (entry to first wire hop), one "wire" span per node hop
// enclosing that node's "admission" and "wait" spans, and a "hold" span from
// grant to Release. Completed traces land in a bounded in-memory log served
// by Client.DebugMux at /debug/rnlp/trace and exportable as a multi-track
// Perfetto trace.

// Span is one operation of a distributed trace. Times are unix nanoseconds
// on the clock of the component that measured them (client clock for
// client-side spans, the serving node's clock for server spans).
type Span struct {
	// ID is the span's identity (client-minted spans only; server spans
	// need none — nothing hangs below them but shard events, which join by
	// trace ID).
	ID string `json:"id,omitempty"`
	// Parent is the enclosing span's ID ("" for the root).
	Parent string `json:"parent,omitempty"`
	// Name is the span kind: acquire, queue, wire, admission, wait, hold.
	Name string `json:"name"`
	// Node is the serving node for server-measured spans and node-directed
	// client hops ("" for purely client-local spans).
	Node        string            `json:"node,omitempty"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// Trace is one acquisition's stitched causal record across every hop.
type Trace struct {
	// ID is the trace identity carried on the wire and stamped onto shard
	// events cluster-wide.
	ID string `json:"trace_id"`
	// Err records the acquisition's failure ("" on success); failed
	// acquisitions still commit their partial trace.
	Err string `json:"err,omitempty"`
	// Spans holds every span gathered, client and server, in start order.
	Spans []Span `json:"spans"`
}

// newTraceID mints a 64-bit random hex ID (16 chars) from the runtime's
// seeded generator: trace and span IDs must be unlikely to collide, not hard
// to guess.
func newTraceID() string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], rand.Uint64())
	var b [16]byte
	hex.Encode(b[:], raw[:])
	return string(b[:])
}

// traceLogCap bounds the client's completed-trace ring.
const traceLogCap = 64

// traceLog is a bounded FIFO of completed traces.
type traceLog struct {
	mu     sync.Mutex
	traces []Trace
}

func (l *traceLog) add(t Trace) {
	slices.SortStableFunc(t.Spans, func(a, b Span) int { return cmp.Compare(a.StartUnixNS, b.StartUnixNS) })
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces = append(l.traces, t)
	if len(l.traces) > traceLogCap {
		l.traces = l.traces[len(l.traces)-traceLogCap:]
	}
}

// recent returns the retained traces, oldest first.
func (l *traceLog) recent() []Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Trace(nil), l.traces...)
}

// byID returns one retained trace.
func (l *traceLog) byID(id string) (Trace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.traces) - 1; i >= 0; i-- {
		if l.traces[i].ID == id {
			return l.traces[i], true
		}
	}
	return Trace{}, false
}

// traceBuilder accumulates one in-flight acquisition's spans. It is used by
// a single goroutine (the acquiring one) until the grant, after which only
// Release touches it. The root "acquire" span is Spans[0] from the start.
type traceBuilder struct {
	trace Trace
}

func newTraceBuilder(now int64) *traceBuilder {
	// Room for the spans of a one-node acquisition: root, queue, wire,
	// admission, wait, hold.
	spans := make([]Span, 1, 6)
	spans[0] = Span{ID: newTraceID(), Name: "acquire", StartUnixNS: now}
	return &traceBuilder{trace: Trace{ID: newTraceID(), Spans: spans}}
}

// rootID is the ID every client-side span hangs below.
func (tb *traceBuilder) rootID() string { return tb.trace.Spans[0].ID }

func (tb *traceBuilder) add(s Span) { tb.trace.Spans = append(tb.trace.Spans, s) }

// finish closes the root span and returns the assembled trace.
func (tb *traceBuilder) finish(now int64, err error) Trace {
	tb.trace.Spans[0].EndUnixNS = now
	if err != nil {
		tb.trace.Err = err.Error()
	}
	return tb.trace
}

// WritePerfetto renders the trace as a Chrome/Perfetto trace-event JSON
// document: one process (pid) per node — pid 1 is the client — with spans as
// complete ("X") slices in microseconds, so a cross-node acquisition shows as
// one multi-track causal timeline. Timestamps are rebased to the trace's
// earliest span.
func (t Trace) WritePerfetto(w io.Writer) error {
	type traceEvent struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  *float64          `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var base int64
	for i, s := range t.Spans {
		if i == 0 || s.StartUnixNS < base {
			base = s.StartUnixNS
		}
	}
	pidOf := map[string]int{"": 1} // client process
	var order []string
	for _, s := range t.Spans {
		if _, ok := pidOf[s.Node]; !ok {
			pidOf[s.Node] = 2 + len(order)
			order = append(order, s.Node)
		}
	}
	var evs []traceEvent
	evs = append(evs, traceEvent{Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "client"}})
	for _, n := range order {
		evs = append(evs, traceEvent{Name: "process_name", Ph: "M", PID: pidOf[n],
			Args: map[string]string{"name": "node " + n}})
	}
	for _, s := range t.Spans {
		pid := pidOf[s.Node]
		// wire spans are client-measured even though node-directed: they
		// belong on the client track, labeled with the node.
		name := s.Name
		if s.Name == "wire" || s.Name == "queue" || s.Name == "acquire" || s.Name == "hold" {
			pid = 1
			if s.Node != "" {
				name = s.Name + " " + s.Node
			}
		}
		dur := float64(s.EndUnixNS-s.StartUnixNS) / 1e3
		if dur < 0 {
			dur = 0
		}
		args := map[string]string{"trace_id": t.ID}
		for k, v := range s.Attrs {
			args[k] = v
		}
		evs = append(evs, traceEvent{
			Name: name, Ph: "X",
			TS:  float64(s.StartUnixNS-base) / 1e3,
			Dur: &dur, PID: pid, TID: 1, Args: args,
		})
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Traces returns the client's retained completed traces, oldest first (the
// ring keeps the most recent traceLogCap). Empty when tracing is disabled
// (WithoutTracing).
func (c *Client) Traces() []Trace {
	if c.traces == nil {
		return nil
	}
	return c.traces.recent()
}

// TraceByID returns one retained trace by its ID.
func (c *Client) TraceByID(id string) (Trace, bool) {
	if c.traces == nil {
		return Trace{}, false
	}
	return c.traces.byID(id)
}
