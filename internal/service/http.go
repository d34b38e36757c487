package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
	"github.com/rtsync/rwrnlp/internal/wire"
)

// Handler mounts the service API and the protocol's full debug surface:
//
//	POST /v1/session     open a session (lease)
//	POST /v1/heartbeat   renew a lease
//	POST /v1/close       close a session, releasing its footprint
//	POST /v1/acquire     blocking acquisition → handle + fencing tokens
//	POST /v1/release     release a grant by handle
//	POST /v1/fence       check a fencing token
//	GET  /v1/spec        resource system + cluster map
//	GET  /debug/rnlp/cluster  merged multi-node cockpit view (?window=30s)
//	(everything else)    Protocol.DebugMux: /metrics, /debug/rnlp/flight,
//	                     /debug/rnlp/watchdog, /debug/rnlp/timeseries,
//	                     /debug/rnlp/attr, /debug/pprof/*, /healthz
//
// so rnlptop and flightdump work against a live node unchanged.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleOpenSession)
	mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/close", s.handleCloseSession)
	mux.HandleFunc("POST /v1/acquire", s.handleAcquire)
	mux.HandleFunc("POST /v1/release", s.handleRelease)
	mux.HandleFunc("POST /v1/fence", s.handleFence)
	mux.HandleFunc("GET /v1/spec", s.handleSpec)
	mux.HandleFunc("GET /debug/rnlp/cluster", s.handleCluster)
	mux.Handle("/", s.p.DebugMux())
	return mux
}

// handleCluster serves the merged multi-node cockpit view (?window=30s, Go
// duration syntax, default 60s).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	window := 60 * time.Second
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			http.Error(w, "bad window (want a Go duration, e.g. 30s)", http.StatusBadRequest)
			return
		}
		window = d
	}
	rep := s.ClusterReport(r.Context(), window)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

// writeErr maps a service error onto its wire code and HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	body := client.ErrorBody{Error: err.Error()}
	status := http.StatusInternalServerError
	var wrong *errWrongNode
	switch {
	case errors.As(err, &wrong):
		body.Code, body.Owner, status = client.CodeWrongNode, wrong.owner, http.StatusMisdirectedRequest
	case errors.Is(err, ErrSessionNotFound):
		body.Code, status = client.CodeSessionNotFound, http.StatusNotFound
	case errors.Is(err, ErrLeaseExpired):
		body.Code, status = client.CodeLeaseExpired, http.StatusConflict
	case errors.Is(err, ErrAlreadyReleased):
		body.Code, status = client.CodeAlreadyReleased, http.StatusConflict
	case errors.Is(err, ErrStaleToken):
		body.Code, status = client.CodeStaleToken, http.StatusConflict
	case errors.Is(err, ErrShuttingDown):
		body.Code, status = client.CodeShuttingDown, http.StatusServiceUnavailable
	case errors.Is(err, rwrnlp.ErrEmptyRequest):
		body.Code, status = client.CodeEmptyRequest, http.StatusBadRequest
	case errors.Is(err, rwrnlp.ErrUnknownResource):
		body.Code, status = client.CodeUnknownResource, http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		body.Code, status = client.CodeCanceled, http.StatusRequestTimeout
	default:
		body.Code = client.CodeBadRequest
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// jsonContentType is shared by the hot replies: net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeGrant and writeEmpty are writeJSON for the acquire/release hop's two
// replies, byte for byte, without the encoder.
func writeGrant(w http.ResponseWriter, info *client.GrantInfo) {
	w.Header()["Content-Type"] = jsonContentType
	buf := wire.GetBuf()
	*buf = appendGrantInfo(*buf, info)
	_, _ = w.Write(*buf)
	wire.PutBuf(buf)
}

func writeEmpty(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = io.WriteString(w, emptyReply)
}

// maxBody bounds a request body; a longer one is cut there and fails to parse.
const maxBody = 1 << 20

// decode reads one bounded JSON body.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := wire.GetBuf()
	body, err := wire.ReadLimited(r.Body, *buf, maxBody)
	if err == nil {
		err = unmarshal(body, v)
	}
	*buf = body
	wire.PutBuf(buf)
	if err != nil {
		writeErr(w, err)
		return false
	}
	return true
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req client.OpenSessionRequest
	if !decode(w, r, &req) {
		return
	}
	info, err := s.OpenSession(time.Duration(req.TTLMS) * time.Millisecond)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req client.HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	info, err := s.Heartbeat(req.SessionID)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	var req client.CloseSessionRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.CloseSession(req.SessionID); err != nil {
		writeErr(w, err)
		return
	}
	writeEmpty(w)
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req client.AcquireRequest
	if !decode(w, r, &req) {
		return
	}
	info, err := s.AcquireTraced(r.Context(), req.SessionID, req.Read, req.Write, req.TraceID, req.SpanID)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeGrant(w, &info)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req client.ReleaseRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.Release(req.SessionID, req.Handle); err != nil {
		writeErr(w, err)
		return
	}
	writeEmpty(w)
}

func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req client.FenceRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.Fence(req.Component, req.Token); err != nil {
		writeErr(w, err)
		return
	}
	writeEmpty(w)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.SpecInfo())
}
