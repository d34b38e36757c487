package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"github.com/rtsync/rwrnlp/internal/core"
)

// driveFig2 replays the Fig. 2 scenario into an observer and returns the
// request IDs (read A, write B, read C).
func driveFig2(t *testing.T, o core.Observer) (a, b, c core.ReqID) {
	t.Helper()
	rsm := core.NewRSM(core.NewSpecBuilder(2).Build(), core.Options{})
	rsm.SetObserver(o)
	var err error
	if a, err = rsm.Issue(1, []core.ResourceID{0}, nil, "A"); err != nil {
		t.Fatal(err)
	}
	if b, err = rsm.Issue(2, nil, []core.ResourceID{0}, "B"); err != nil {
		t.Fatal(err)
	}
	if c, err = rsm.Issue(3, []core.ResourceID{0}, nil, "C"); err != nil {
		t.Fatal(err)
	}
	for i, id := range []core.ReqID{a, b, c} {
		if err := rsm.Complete(core.Time(6+3*i), id); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, c
}

// TestFlightDumpRoundTrip: encode → decode → encode must be byte-identical,
// and the decoded records must reconstruct the original wait edges.
func TestFlightDumpRoundTrip(t *testing.T) {
	fl := NewFlightRecorder(1, 64)
	_, wb, rc := driveFig2(t, NewPipeline(Sinks{Flight: fl}))

	d := fl.Dump()
	if len(d.Records) == 0 {
		t.Fatal("dump is empty")
	}

	var buf1 bytes.Buffer
	if err := d.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseFlightDump(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := d2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("round trip not stable:\nfirst:  %s\nsecond: %s", buf1.Bytes(), buf2.Bytes())
	}

	// The reconstructed events still carry C's wait edge behind B.
	var issuedC core.Event
	for _, e := range d2.Events() {
		if e.Type == core.EvIssued && e.Req == rc {
			issuedC = e
		}
	}
	if !reflect.DeepEqual(issuedC.Blockers, []core.ReqID{wb}) {
		t.Errorf("decoded C issue blockers = %v, want [%d]", issuedC.Blockers, wb)
	}
	if issuedC.Tag != "C" {
		t.Errorf("decoded C tag = %v, want \"C\"", issuedC.Tag)
	}
}

// TestFlightRingBounded: the ring keeps only the most recent perShard
// records and Dump returns them in capture order.
func TestFlightRingBounded(t *testing.T) {
	fl := NewFlightRecorder(2, 4)
	for i := 0; i < 10; i++ {
		fl.Record(i%2, core.Event{T: core.Time(i), Type: core.EvIssued, Req: core.ReqID(i)})
	}
	d := fl.Dump()
	if len(d.Records) != 8 {
		t.Fatalf("dump has %d records, want 8 (2 shards × 4 slots)", len(d.Records))
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Seq <= d.Records[i-1].Seq {
			t.Fatalf("records not in capture order: %+v", d.Records)
		}
	}
	// The two oldest records (req 0 and 1) were overwritten.
	for _, rec := range d.Records {
		if rec.Req < 2 {
			t.Errorf("record req=%d should have been evicted", rec.Req)
		}
	}
}

// TestFlightDumpPerfetto: the dump renders as a structurally valid
// Perfetto/Chrome trace (JSON with a traceEvents array, complete slices for
// each satisfied request).
func TestFlightDumpPerfetto(t *testing.T) {
	fl := NewFlightRecorder(1, 64)
	driveFig2(t, NewPipeline(Sinks{Flight: fl}))

	var buf bytes.Buffer
	if err := fl.Dump().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices int
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Errorf("perfetto trace has no complete slices:\n%s", buf.String())
	}
}

// TestFlightDumpAttribution: replaying a dump offline reproduces the causal
// attribution (the cmd/flightdump path).
func TestFlightDumpAttribution(t *testing.T) {
	fl := NewFlightRecorder(1, 64)
	_, _, rc := driveFig2(t, NewPipeline(Sinks{Flight: fl}))

	rep := fl.Dump().Attribution(5)
	if len(rep.Top) == 0 || rep.Top[0].Req != rc {
		t.Fatalf("offline attribution top = %+v, want req %d first", rep.Top, rc)
	}
	var sum int64
	for _, p := range rep.Top[0].Parts {
		sum += p.Span
	}
	if sum != rep.Top[0].Delay {
		t.Errorf("offline decomposition sums to %d, want %d", sum, rep.Top[0].Delay)
	}
}

// TestFlightConcurrentDump: dumping while recording is race-free (run under
// -race) and always yields well-formed records.
func TestFlightConcurrentDump(t *testing.T) {
	fl := NewFlightRecorder(4, 32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fl.Record(shard, core.Event{
					T: core.Time(i), Type: core.EvIssued, Req: core.ReqID(i*4 + shard),
				})
			}
		}(shard)
	}
	for i := 0; i < 50; i++ {
		d := fl.Dump()
		for _, rec := range d.Records {
			if rec.Type != "issued" {
				t.Errorf("torn record: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
}
