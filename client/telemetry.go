package client

import (
	"encoding/json"
	"net/http"

	"github.com/rtsync/rwrnlp/internal/obs"
)

// Client-side telemetry, recorded into an internal/obs registry: per-op HDR
// latency histograms and health counters for the session machinery. All
// instruments are on by default (they are lock-free and cost one atomic add
// per event) and served by Client.DebugMux.
//
// Histograms (wall-clock nanoseconds):
//
//	client_acquire_ns     end-to-end Session.Acquire latency (success only)
//	client_release_ns     end-to-end Session.Release latency
//	client_heartbeat_ns   end-to-end Session.Heartbeat latency (success only)
//
// Counters:
//
//	client_acquires             successful acquisitions
//	client_acquire_errors       failed acquisitions (any cause)
//	client_reroutes             wrong_node re-routes taken (placement drift)
//	client_heartbeat_failures   heartbeats that returned an error
//	client_lease_expired        operations that observed lease loss
//	client_node_unreachable     transport-level node failures
//	client_rollback_failures    releases that failed while rolling back a
//	                            cross-node acquisition (a slice stranded
//	                            until its lease expires)
const (
	MClientAcquireNS   = "client_acquire_ns"
	MClientReleaseNS   = "client_release_ns"
	MClientHeartbeatNS = "client_heartbeat_ns"

	MClientAcquires        = "client_acquires"
	MClientAcquireErrors   = "client_acquire_errors"
	MClientReroutes        = "client_reroutes"
	MClientHeartbeatFails  = "client_heartbeat_failures"
	MClientLeaseExpired    = "client_lease_expired"
	MClientNodeUnreachable = "client_node_unreachable"
	MClientRollbackFails   = "client_rollback_failures"
)

// clientMetrics resolves every instrument once so operation paths never take
// the registry lock.
type clientMetrics struct {
	reg *obs.Metrics

	acquireNS, releaseNS, heartbeatNS *obs.Histogram

	acquires, acquireErrs, reroutes *obs.Counter
	hbFails, leaseExp, nodeUnreach  *obs.Counter
	rollbackFails                   *obs.Counter
}

func newClientMetrics() *clientMetrics {
	reg := obs.NewMetrics()
	return &clientMetrics{
		reg:         reg,
		acquireNS:   reg.Histogram(MClientAcquireNS),
		releaseNS:   reg.Histogram(MClientReleaseNS),
		heartbeatNS: reg.Histogram(MClientHeartbeatNS),
		acquires:    reg.Counter(MClientAcquires),
		acquireErrs: reg.Counter(MClientAcquireErrors),
		reroutes:    reg.Counter(MClientReroutes),
		hbFails:     reg.Counter(MClientHeartbeatFails),
		leaseExp:    reg.Counter(MClientLeaseExpired),
		nodeUnreach: reg.Counter(MClientNodeUnreachable),

		rollbackFails: reg.Counter(MClientRollbackFails),
	}
}

// MetricsSnapshot returns a point-in-time snapshot of the client's telemetry
// (latency histograms and health counters; see the client_* metric names).
func (c *Client) MetricsSnapshot() obs.Snapshot { return c.metrics.reg.Snapshot() }

// DebugMux serves the client's observability surface:
//
//	/metrics            client telemetry (JSON; ?format=text|openmetrics)
//	/debug/rnlp/trace   completed distributed traces (JSON list;
//	                    ?id=<trace_id> for one, &format=perfetto to render)
//	/healthz            "ok"
//
// Mount it on a debug listener of the embedding process.
func (c *Client) DebugMux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(c.metrics.reg))
	mux.HandleFunc("/debug/rnlp/trace", c.handleTraces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

func (c *Client) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := c.TraceByID(id)
		if !ok {
			http.Error(w, "trace not found", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "perfetto" {
			w.Header().Set("Content-Type", "application/json")
			_ = t.WritePerfetto(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(t)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(c.Traces())
}
