package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"time"
)

// format reads a route's ?format= value, "" selecting the JSON default. Any
// value outside accepted is answered 400 naming the accepted ones — a
// scraper configured for a format this route does not serve must fail
// loudly, not ingest JSON — and ok is false.
func format(w http.ResponseWriter, r *http.Request, accepted ...string) (f string, ok bool) {
	f = r.URL.Query().Get("format")
	if f == "" || slices.Contains(accepted, f) {
		return f, true
	}
	http.Error(w, fmt.Sprintf("unknown format %q (omit it for JSON, or use one of: %s)",
		f, strings.Join(accepted, ", ")), http.StatusBadRequest)
	return f, false
}

// Handler serves the registry's snapshot: JSON by default (expvar-style),
// plain text with ?format=text, OpenMetrics 1.0.0 (with _created series and
// exemplars) with ?format=openmetrics; any other format is a 400. A nil
// registry serves an empty snapshot.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := format(w, r, "text", "openmetrics")
		if !ok {
			return
		}
		var s Snapshot
		if m != nil {
			s = m.Snapshot()
		}
		switch f {
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(s.String()))
		case "openmetrics":
			w.Header().Set("Content-Type", OpenMetricsContentType)
			_ = WriteOpenMetrics(w, s)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(s)
		}
	})
}

// TimeSeriesHandler serves windowed time-series reports as JSON. The window
// defaults to 60s and is set with ?window=30s (Go duration syntax); ?raw=1
// additionally includes the retained samples. Each request refreshes the ring
// if its head sample is stale, so scrapes see current data even when the
// capture goroutine was never started. A nil series serves an empty report.
func TimeSeriesHandler(ts *TimeSeries) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if ts == nil {
			_ = enc.Encode(struct {
				Error string `json:"error"`
			}{"no time series attached"})
			return
		}
		window := 60 * time.Second
		if q := r.URL.Query().Get("window"); q != "" {
			if d, err := time.ParseDuration(q); err == nil && d > 0 {
				window = d
			} else {
				http.Error(w, "bad window (want a Go duration, e.g. 30s)", http.StatusBadRequest)
				return
			}
		}
		ts.ensureFresh()
		rep := ts.Query(window)
		if r.URL.Query().Get("raw") == "1" {
			_ = enc.Encode(struct {
				Report  TimeSeriesReport `json:"report"`
				Samples []Snapshot       `json:"samples"`
			}{rep, ts.Samples()})
			return
		}
		_ = enc.Encode(rep)
	})
}

// AttributionHandler serves the causal blocking-attribution report as JSON
// (?format=text for the human rendering; any other format is a 400). report
// is called per request; a nil func serves an empty report.
func AttributionHandler(report func() AttributionReport) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := format(w, r, "text")
		if !ok {
			return
		}
		var rep AttributionReport
		if report != nil {
			rep = report()
		}
		if f == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(rep.String()))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}

// FlightHandler serves the flight recorder's current dump: JSON by default,
// a Perfetto/Chrome trace with ?format=perfetto; any other format is a 400.
// A nil recorder serves an empty dump.
func FlightHandler(fl *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := format(w, r, "perfetto")
		if !ok {
			return
		}
		var d FlightDump
		if fl != nil {
			d = fl.Dump()
		} else {
			d.Version = flightDumpVersion
		}
		if f == "perfetto" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="rnlp-flight.trace.json"`)
			_ = d.WritePerfetto(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = d.WriteJSON(w)
	})
}

// WatchdogHandler serves the stall watchdogs' firing counts and retained
// reports as JSON (flight dumps are elided — fetch /debug/rnlp/flight for
// the live rings).
func WatchdogHandler(wds ...*Watchdog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var out struct {
			Firings int64         `json:"firings"`
			Reports []StallReport `json:"reports"`
		}
		for _, wd := range wds {
			if wd == nil {
				continue
			}
			out.Firings += wd.Firings()
			for _, rep := range wd.Reports() {
				rep.Dump = nil
				rep.GoroutineProfile = nil
				out.Reports = append(out.Reports, rep)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}

// DebugMuxConfig selects what NewDebugMux serves. Any field may be nil; the
// corresponding route serves empty data.
type DebugMuxConfig struct {
	Metrics *Metrics
	Bounds  *BoundMonitor
	Flight  *FlightRecorder
	Series  *TimeSeries
	// Attribution is called per request to /debug/rnlp/attr.
	Attribution func() AttributionReport
	Watchdogs   []*Watchdog
}

// NewDebugMux builds the debug endpoint for long-running users of the
// runtime lock:
//
//	/metrics                 metrics snapshot (JSON; ?format=text|openmetrics)
//	/bounds                  current bound-monitor report, plain text
//	/debug/rnlp/flight       flight-recorder dump (JSON; ?format=perfetto)
//	/debug/rnlp/watchdog     stall-watchdog firings and reports, JSON
//	/debug/rnlp/timeseries   windowed rates/quantiles/bound-utilization (JSON; ?window=30s&raw=1)
//	/debug/rnlp/attr         causal blocking attribution (JSON; ?format=text)
//	/debug/pprof/...         the standard net/http/pprof handlers
//	/healthz                 "ok"
func NewDebugMux(cfg DebugMuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(cfg.Metrics))
	mux.HandleFunc("/bounds", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Bounds == nil {
			_, _ = w.Write([]byte("(no bound monitor attached)\n"))
			return
		}
		_, _ = w.Write([]byte(cfg.Bounds.Report().String()))
	})
	mux.Handle("/debug/rnlp/flight", FlightHandler(cfg.Flight))
	mux.Handle("/debug/rnlp/watchdog", WatchdogHandler(cfg.Watchdogs...))
	mux.Handle("/debug/rnlp/timeseries", TimeSeriesHandler(cfg.Series))
	mux.Handle("/debug/rnlp/attr", AttributionHandler(cfg.Attribution))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok")
	})
	return mux
}
