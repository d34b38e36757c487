package mc

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/rtsync/rwrnlp/internal/obs"
)

// Tentpole integration: a model-checker violation replayed into the flight
// recorder yields a dump that round-trips encode → decode → encode and
// renders as a Perfetto trace — so a counterexample found offline can be
// inspected with exactly the tooling (cmd/flightdump, the /debug/rnlp/flight
// endpoint format) used for a production stall.
func TestReplayViolationIntoFlightRecorder(t *testing.T) {
	sc := &Scenario{
		Name:                 "inject-overtake",
		Q:                    2,
		Templates:            mustTemplates("w:0 w:0+1 w:1"),
		ChaosSkipWQHeadCheck: true,
	}
	res, err := Explore(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatal("injected overtaking bug not caught")
	}

	fl := obs.NewFlightRecorder(1, 256)
	rv, err := ReplayObserved(v.Scenario, v.Path, obs.NewPipeline(obs.Sinks{Flight: fl}))
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil || rv.Kind != v.Kind {
		t.Fatalf("observed replay did not reproduce the %s violation: %v", v.Kind, rv)
	}

	d := fl.Dump()
	if len(d.Records) == 0 {
		t.Fatal("replay produced no flight records")
	}
	// Every step of the violating schedule at least issues a request, so the
	// ring must hold issuance events with the replay's logical step times.
	issues := 0
	for _, rec := range d.Records {
		if rec.Type == "issued" {
			issues++
		}
	}
	if issues == 0 {
		t.Fatalf("no issuance events in the dump: %+v", d.Records)
	}

	var first bytes.Buffer
	if err := d.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	d2, err := obs.ParseFlightDump(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decoding own dump: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := d2.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("dump did not round-trip:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}

	var trace bytes.Buffer
	if err := d2.WritePerfetto(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto render of replay dump is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto render of replay dump has no events")
	}
}
