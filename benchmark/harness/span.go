package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the trace's epoch; Parent is the ID of the span that
// caused it (0 for a root). Spans of one request share its root.
type Span struct {
	ID     int64
	Parent int64
	Name   string
	Track  int // the goroutine (or server side) that recorded it
	Start  int64
	End    int64
}

// SpanBuf is one goroutine's span store: fixed capacity, appended without
// locks, read only after the goroutine has stopped. A full buffer drops
// further spans and counts them, so tracing never grows the heap mid-run.
type SpanBuf struct {
	track   int
	epoch   time.Time
	spans   []Span
	next    int64
	Dropped int
}

// NewSpanBuf makes a buffer for one track.
func NewSpanBuf(track int, epoch time.Time, capacity int) *SpanBuf {
	return &SpanBuf{track: track, epoch: epoch, spans: make([]Span, 0, capacity)}
}

// Now is the current time on the trace clock.
func (b *SpanBuf) Now() int64 { return int64(time.Since(b.epoch)) }

// NewID hands out a span ID. A root takes its ID before its children are
// recorded and is itself recorded last, once its final child has ended.
func (b *SpanBuf) NewID() int64 {
	b.next++
	return int64(b.track+1)<<32 | b.next
}

// Add records a finished span under an ID from NewID.
func (b *SpanBuf) Add(id, parent int64, name string, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.Dropped++
		return
	}
	b.spans = append(b.spans, Span{ID: id, Parent: parent, Name: name, Track: b.track, Start: start, End: end})
}

// Spans returns what the buffer holds.
func (b *SpanBuf) Spans() []Span { return b.spans }

// NestByContainment gives every parentless span the tightest span of
// another track that contains its interval. The ladder is single-threaded,
// so a handler span recorded on the server side lies inside exactly one
// client call.
func NestByContainment(spans []Span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var open []int // indices of spans that contain the current position
	for _, i := range order {
		s := &spans[i]
		for len(open) > 0 && spans[open[len(open)-1]].End < s.End {
			open = open[:len(open)-1]
		}
		if s.Parent == 0 {
			for k := len(open) - 1; k >= 0; k-- {
				if p := &spans[open[k]]; p.Track != s.Track {
					s.Parent = p.ID
					break
				}
			}
		}
		open = append(open, i)
	}
}

// SelfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// TraceGroup is a set of spans that share a clock; each becomes a process
// in the trace file.
type TraceGroup struct {
	Name  string
	Spans []Span
}

// traceEvent is one Chrome trace-event record: "X" for a complete span, "M"
// for the metadata that names a process. Perfetto and chrome://tracing both
// open a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace writes the groups' spans, with the run's metrics as metadata,
// to path.
func WriteTrace(path string, metrics map[string]float64, groups ...TraceGroup) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","otherData":`)
	if err := enc.Encode(metrics); err != nil {
		return "", err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			w.WriteByte(',')
		}
		first = false
		return enc.Encode(ev)
	}
	for g, group := range groups {
		if err := emit(traceEvent{Name: "process_name", Ph: "M", PID: g + 1, Args: map[string]any{"name": group.Name}}); err != nil {
			return "", err
		}
		for _, s := range group.Spans {
			ev := traceEvent{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: g + 1, TID: s.Track, Args: map[string]any{"id": s.ID, "parent": s.Parent}}
			if err := emit(ev); err != nil {
				return "", err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
