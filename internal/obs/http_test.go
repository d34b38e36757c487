package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerJSONAndText(t *testing.T) {
	m := NewMetrics()
	m.Counter("reqs").Add(7)
	m.Histogram("delay").Observe(42)
	h := Handler(m)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if s.Counters["reqs"] != 7 || s.Hists["delay"].Max != 42 {
		t.Errorf("snapshot = %+v", s)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if !strings.Contains(rr.Body.String(), "reqs") {
		t.Errorf("text dump missing counter:\n%s", rr.Body.String())
	}
}

func TestHandlerNilMetrics(t *testing.T) {
	rr := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Errorf("status = %d", rr.Code)
	}
	if !json.Valid(rr.Body.Bytes()) {
		t.Error("nil-metrics response not valid JSON")
	}
}

func TestDebugMux(t *testing.T) {
	m := NewMetrics()
	m.Counter("reqs").Add(1)
	mux := NewDebugMux(DebugMuxConfig{
		Metrics:   m,
		Bounds:    NewBoundMonitor(4),
		Flight:    NewFlightRecorder(1, 16),
		Watchdogs: []*Watchdog{NewWatchdog(WatchdogConfig{})},
	})

	for path, want := range map[string]string{
		"/metrics":                           "{",
		"/metrics?format=text":               "reqs",
		"/metrics?format=openmetrics":        "# TYPE rwrnlp_reqs counter",
		"/bounds":                            "bound monitor",
		"/debug/rnlp/flight":                 `"version"`,
		"/debug/rnlp/flight?format=perfetto": "traceEvents",
		"/debug/rnlp/attr":                   "{",
		"/debug/rnlp/attr?format=text":       "",
		"/debug/rnlp/watchdog":               `"firings"`,
		"/debug/pprof/":                      "profiles",
		"/debug/pprof/goroutine?debug=1":     "goroutine",
		"/healthz":                           "ok",
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Errorf("%s: status %d", path, rr.Code)
		}
		if !strings.Contains(rr.Body.String(), want) {
			t.Errorf("%s: body %q lacks %q", path, rr.Body.String(), want)
		}
	}

	// An unrecognised ?format= is a 400 naming the accepted values, never a
	// silent fall-through to JSON: a scraper still configured for the removed
	// Prometheus 0.0.4 exposition ("prom") must fail loudly.
	for _, c := range []struct {
		route    string
		rejected []string
		accepted string
	}{
		{"/metrics", []string{"prom", "json", "perfetto"}, "text, openmetrics"},
		{"/debug/rnlp/attr", []string{"openmetrics"}, "text"},
		{"/debug/rnlp/flight", []string{"text"}, "perfetto"},
	} {
		for _, f := range c.rejected {
			path := c.route + "?format=" + f
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != 400 {
				t.Errorf("%s: status %d, want 400", path, rr.Code)
			}
			if body := rr.Body.String(); !strings.Contains(body, "unknown format") || !strings.Contains(body, c.accepted) {
				t.Errorf("%s: body %q does not name the accepted formats %q", path, body, c.accepted)
			}
		}
	}

	empty := NewDebugMux(DebugMuxConfig{})
	rr := httptest.NewRecorder()
	empty.ServeHTTP(rr, httptest.NewRequest("GET", "/bounds", nil))
	if !strings.Contains(rr.Body.String(), "no bound monitor") {
		t.Errorf("nil bounds body = %q", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	empty.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/rnlp/flight", nil))
	if rr.Code != 200 || !json.Valid(rr.Body.Bytes()) {
		t.Errorf("nil flight route: status %d body %q", rr.Code, rr.Body.String())
	}
}

// TestFlightHandlerPerfetto: the flight route renders a Perfetto trace with
// ?format=perfetto.
func TestFlightHandlerPerfetto(t *testing.T) {
	fl := NewFlightRecorder(1, 64)
	driveFig2(t, NewPipeline(Sinks{Flight: fl}))
	rr := httptest.NewRecorder()
	FlightHandler(fl).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/rnlp/flight?format=perfetto", nil))
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("perfetto route invalid (err=%v, events=%d):\n%s", err, len(tr.TraceEvents), rr.Body.String())
	}
}
