package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rtsync/rwrnlp/internal/wire"
)

// Client talks to an rnlpd cluster. It is safe for concurrent use; one
// Client serves any number of Sessions.
type Client struct {
	hc      *http.Client
	spec    SpecInfo
	place   *Placement
	compOf  []ResourceID      // resource → component index
	ownerOf []string          // component index → owning node (place.Owner, precomputed)
	addrOf  map[string]string // node identity → base URL

	// metrics is the client-side telemetry registry (always on; see
	// telemetry.go). traces is the completed-trace ring, nil under
	// WithoutTracing.
	metrics *clientMetrics
	noTrace bool
	traces  *traceLog
}

// ClientOption configures New.
type ClientOption func(*Client)

// WithHTTPClient substitutes the http.Client used for every request (the
// default has no timeout, because Acquire legitimately blocks).
func WithHTTPClient(hc *http.Client) ClientOption {
	return ClientOption(func(c *Client) { c.hc = hc })
}

// WithoutTracing disables distributed tracing: acquisitions carry no trace
// ID on the wire, no spans are gathered, and Traces returns nil. Telemetry
// counters and histograms stay on.
func WithoutTracing() ClientOption {
	return ClientOption(func(c *Client) { c.noTrace = true })
}

// New connects to a cluster: it fetches /v1/spec from the first reachable
// addr (base URLs, e.g. "http://127.0.0.1:6060") and builds the same
// consistent-hash placement the servers use. Node identities resolve to
// base URLs by, in order: a single-node cluster maps to addrs[0]; a node
// map the same length as addrs maps positionally; identities that are
// themselves http(s) URLs self-resolve. Anything else is a config error.
func New(ctx context.Context, addrs []string, opts ...ClientOption) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rnlp client: no addresses")
	}
	c := &Client{hc: &http.Client{}, metrics: newClientMetrics()}
	for _, o := range opts {
		o(c)
	}
	if !c.noTrace {
		c.traces = &traceLog{}
	}
	var lastErr error
	ok := false
	for _, a := range addrs {
		if err := c.getJSON(ctx, strings.TrimSuffix(a, "/")+"/v1/spec", &c.spec); err != nil {
			lastErr = err
			continue
		}
		ok = true
		break
	}
	if !ok {
		return nil, fmt.Errorf("rnlp client: no node reachable: %w", lastErr)
	}
	c.place = NewPlacement(c.spec.Nodes, c.spec.VNodes)
	c.compOf = make([]ResourceID, c.spec.Resources)
	for ci, rs := range c.spec.Components {
		for _, r := range rs {
			if r >= 0 && r < len(c.compOf) {
				c.compOf[r] = ci
			}
		}
	}
	c.ownerOf = make([]string, len(c.spec.Components))
	for ci := range c.ownerOf {
		c.ownerOf[ci] = c.place.Owner(ci)
	}
	c.addrOf = make(map[string]string, len(c.spec.Nodes))
	switch {
	case len(c.spec.Nodes) == 1:
		c.addrOf[c.spec.Nodes[0]] = strings.TrimSuffix(addrs[0], "/")
	case len(c.spec.Nodes) == len(addrs):
		for i, n := range c.spec.Nodes {
			c.addrOf[n] = strings.TrimSuffix(addrs[i], "/")
		}
	default:
		for _, n := range c.spec.Nodes {
			if strings.HasPrefix(n, "http://") || strings.HasPrefix(n, "https://") {
				c.addrOf[n] = strings.TrimSuffix(n, "/")
				continue
			}
			return nil, fmt.Errorf("rnlp client: cannot resolve node %q to an address (pass one addr per node, or name nodes by URL)", n)
		}
	}
	return c, nil
}

// Spec returns the cluster description fetched at New.
func (c *Client) Spec() SpecInfo { return c.spec }

// Placement returns the client's consistent-hash view of component
// ownership (identical to every server's, by construction).
func (c *Client) Placement() *Placement { return c.place }

// ComponentOf returns the resource's component index, or -1 for an unknown
// resource.
func (c *Client) ComponentOf(r ResourceID) int {
	if r < 0 || r >= len(c.compOf) {
		return -1
	}
	return c.compOf[r]
}

// owner is Placement.Owner through the table New precomputed.
func (c *Client) owner(component int) string {
	if component >= 0 && component < len(c.ownerOf) {
		return c.ownerOf[component]
	}
	return c.place.Owner(component)
}

// Fence checks a fencing token against the component's owner node: nil if
// the token is still the component's valid fence, ErrStaleToken if it
// belongs to a released or expired grant or a newer token has been
// presented. Downstream services guard side effects with this before
// applying a lock-protected operation.
func (c *Client) Fence(ctx context.Context, component int, token uint64) error {
	return c.post(ctx, c.owner(component), "/v1/fence", FenceRequest{Component: component, Token: token}, nil)
}

// SessionOption configures OpenSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	ttl       time.Duration
	keepalive bool
}

// WithTTL requests a lease length (0 takes the server default; servers
// clamp to their cap).
func WithTTL(d time.Duration) SessionOption {
	return SessionOption(func(sc *sessionConfig) { sc.ttl = d })
}

// WithoutKeepAlive disables the automatic heartbeat goroutine; the caller
// must call Session.Heartbeat within every lease period itself.
func WithoutKeepAlive() SessionOption {
	return SessionOption(func(sc *sessionConfig) { sc.keepalive = false })
}

// Session is one client's footprint on the cluster: a lease-holding
// session on every node, renewed by a background heartbeat. If the process
// crashes (heartbeats stop), every node auto-releases the session's grants
// and withdraws its pending acquisitions within one lease TTL.
type Session struct {
	c   *Client
	ttl time.Duration

	// ids maps node → server-side session id. OpenSession fills it before
	// the session is shared; after that it is only read, without mu.
	ids map[string]string

	mu      sync.Mutex
	closed  bool
	expired bool

	stopKA chan struct{}
	kaWG   sync.WaitGroup
}

// OpenSession opens a session on every node of the cluster and starts the
// keepalive heartbeat (unless WithoutKeepAlive). Close it to release the
// footprint eagerly; crashing instead releases it within one lease TTL.
func (c *Client) OpenSession(ctx context.Context, opts ...SessionOption) (*Session, error) {
	sc := sessionConfig{keepalive: true}
	for _, o := range opts {
		o(&sc)
	}
	s := &Session{c: c, ids: make(map[string]string), stopKA: make(chan struct{})}
	ttlMS := int64(0)
	if sc.ttl > 0 {
		ttlMS = sc.ttl.Milliseconds()
	}
	for _, n := range c.spec.Nodes {
		var info SessionInfo
		if err := c.post(ctx, n, "/v1/session", OpenSessionRequest{TTLMS: ttlMS}, &info); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("open session on %s: %w", n, err)
		}
		s.ids[n] = info.ID
		if d := time.Duration(info.TTLMS) * time.Millisecond; d > s.ttl {
			s.ttl = d
		}
	}
	if sc.keepalive {
		s.kaWG.Add(1)
		go s.keepalive()
	}
	return s, nil
}

// keepalive heartbeats every node at a third of the lease TTL until Close
// or lease loss.
func (s *Session) keepalive() {
	defer s.kaWG.Done()
	interval := s.ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopKA:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			err := s.Heartbeat(ctx)
			cancel()
			if err != nil && s.Expired() {
				return
			}
		}
	}
}

// Heartbeat renews the lease on every node now. On ErrLeaseExpired or
// ErrSessionNotFound the session is marked expired: its grants are gone
// server-side and further operations fail.
func (s *Session) Heartbeat(ctx context.Context) error {
	start := time.Now()
	if s.isClosed() {
		return ErrSessionClosed
	}
	var firstErr error
	for n, id := range s.ids {
		err := s.c.post(ctx, n, "/v1/heartbeat", HeartbeatRequest{SessionID: id}, nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if isExpiry(err) {
			s.c.metrics.leaseExp.Inc()
			s.mu.Lock()
			s.expired = true
			s.mu.Unlock()
		}
	}
	if firstErr != nil {
		s.c.metrics.hbFails.Inc()
	} else {
		s.c.metrics.heartbeatNS.Observe(time.Since(start).Nanoseconds())
	}
	return firstErr
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func isExpiry(err error) bool {
	return errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrSessionNotFound)
}

// Expired reports whether the session has observed the loss of its lease.
// (The server may have expired it already without the client knowing; the
// next operation surfaces that as ErrLeaseExpired.)
func (s *Session) Expired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expired
}

// Close stops the keepalive and closes the session on every node, which
// releases any still-held grants. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopKA)
	s.kaWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var firstErr error
	for n, id := range s.ids {
		err := s.c.post(ctx, n, "/v1/close", CloseSessionRequest{SessionID: id}, nil)
		if err != nil && firstErr == nil && !isExpiry(err) {
			firstErr = err
		}
	}
	return firstErr
}

// grantPart is one node's slice of a grant.
type grantPart struct {
	node    string
	handle  string
	fencing []ComponentToken
}

// Grant is a held acquisition. Release it via Session.Release.
type Grant struct {
	sess  *Session
	parts []grantPart

	// tb accumulates the acquisition's distributed trace until Release
	// commits it (nil under WithoutTracing); holdStart is the grant instant
	// bounding the hold span.
	tb        *traceBuilder
	holdStart int64
}

// TraceID returns the grant's distributed trace ID, or "" when tracing is
// disabled. The same ID appears in the serving nodes' flight-recorder
// records, attribution chains, and OpenMetrics exemplars.
func (g *Grant) TraceID() string {
	if g.tb == nil {
		return ""
	}
	return g.tb.trace.ID
}

// Fencing returns the grant's fencing tokens, one per component of the
// footprint, ascending by component.
func (g *Grant) Fencing() []ComponentToken {
	var out []ComponentToken
	for _, p := range g.parts {
		out = append(out, p.fencing...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Token returns the fencing token covering the given resource, resolving
// it through its component; ok is false when the grant does not cover it.
func (g *Grant) Token(r ResourceID) (token uint64, ok bool) {
	c := g.sess.c.ComponentOf(r)
	if c < 0 {
		return 0, false
	}
	for _, p := range g.parts {
		for _, ct := range p.fencing {
			if ct.Component == c {
				return ct.Token, true
			}
		}
	}
	return 0, false
}

// slice is one contiguous (in component order) same-node piece of a routed
// footprint.
type routeSlice struct {
	node        string
	read, write []ResourceID
}

// route validates the footprint and splits it into per-node slices in
// ascending component order, coalescing consecutive components owned by
// the same node. Acquiring the slices in this order preserves the global
// ascending-component discipline, so cross-node acquisition cannot
// deadlock (every hold-wait edge points up the component order).
func (c *Client) route(read, write []ResourceID) ([]routeSlice, error) {
	if len(read)+len(write) == 0 {
		return nil, ErrEmptyRequest
	}
	first, single := -1, true
	for _, ids := range [2][]ResourceID{read, write} {
		for _, r := range ids {
			comp := c.ComponentOf(r)
			if comp < 0 {
				return nil, fmt.Errorf("%w: resource %d not in [0,%d)", ErrUnknownResource, r, c.spec.Resources)
			}
			if first < 0 {
				first = comp
			} else if comp != first {
				single = false
			}
		}
	}
	if single {
		// A footprint inside one component — every declared request — is one
		// slice as given: nothing to group, order or coalesce.
		return []routeSlice{{node: c.owner(first), read: read, write: write}}, nil
	}
	type compSlice struct{ read, write []ResourceID }
	byComp := map[int]*compSlice{}
	for i, ids := range [2][]ResourceID{read, write} {
		for _, r := range ids {
			comp := c.ComponentOf(r)
			cs := byComp[comp]
			if cs == nil {
				cs = &compSlice{}
				byComp[comp] = cs
			}
			if i == 1 {
				cs.write = append(cs.write, r)
			} else {
				cs.read = append(cs.read, r)
			}
		}
	}
	comps := make([]int, 0, len(byComp))
	for comp := range byComp {
		comps = append(comps, comp)
	}
	sort.Ints(comps)
	var out []routeSlice
	for _, comp := range comps {
		owner := c.owner(comp)
		cs := byComp[comp]
		if n := len(out); n > 0 && out[n-1].node == owner {
			out[n-1].read = append(out[n-1].read, cs.read...)
			out[n-1].write = append(out[n-1].write, cs.write...)
			continue
		}
		out = append(out, routeSlice{node: owner, read: cs.read, write: cs.write})
	}
	return out, nil
}

// Acquire blocks until read access to every resource in read and write
// access to every resource in write is held, with the v2 Protocol
// semantics. A footprint spanning several nodes is acquired slice-by-slice
// in ascending component order (the in-process slow-path discipline lifted
// to the cluster); on failure everything already held is released in
// reverse. The grant carries one monotonic fencing token per component.
func (s *Session) Acquire(ctx context.Context, read, write []ResourceID) (*Grant, error) {
	start := time.Now()
	if s.isClosed() {
		return nil, ErrSessionClosed
	}
	slices, err := s.c.route(read, write)
	if err != nil {
		s.c.metrics.acquireErrs.Inc()
		return nil, err
	}
	var tb *traceBuilder
	if s.c.traces != nil {
		tb = newTraceBuilder(start.UnixNano())
	}
	g := &Grant{sess: s, tb: tb}
	fail := func(err error) (*Grant, error) {
		if isExpiry(err) {
			s.c.metrics.leaseExp.Inc()
			s.mu.Lock()
			s.expired = true
			s.mu.Unlock()
		}
		if rerr := s.rollback(g.parts); rerr != nil {
			err = errors.Join(err, rerr)
		}
		s.c.metrics.acquireErrs.Inc()
		if tb != nil {
			s.c.traces.add(tb.finish(time.Now().UnixNano(), err))
			g.tb = nil
		}
		return nil, err
	}
	for i, sl := range slices {
		if tb != nil && i == 0 {
			// Queue span: client-local time between entry and the first wire
			// hop (routing, validation, and any caller-side queueing folded
			// into the measured entry point).
			tb.add(Span{ID: newTraceID(), Parent: tb.rootID(), Name: "queue",
				StartUnixNS: start.UnixNano(), EndUnixNS: time.Now().UnixNano()})
		}
		info, node, err := s.acquireSlice(ctx, tb, sl)
		if err != nil {
			return fail(err)
		}
		g.parts = append(g.parts, grantPart{node: node, handle: info.Handle, fencing: info.Fencing})
	}
	g.holdStart = time.Now().UnixNano()
	s.c.metrics.acquires.Inc()
	s.c.metrics.acquireNS.Observe(g.holdStart - start.UnixNano())
	return g, nil
}

// rollback releases the slices a failed cross-node acquisition already holds,
// newest first. A release that fails leaves its slice stranded on that node
// until the lease runs out: each is counted in client_rollback_failures and
// the first is returned for the caller to report. A node answering that the
// lease or the grant is already gone has freed the slice itself, which is no
// failure.
func (s *Session) rollback(parts []grantPart) error {
	var first error
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := s.c.post(ctx, p.node, "/v1/release", ReleaseRequest{SessionID: s.ids[p.node], Handle: p.handle}, nil)
		cancel()
		if err == nil || isExpiry(err) || errors.Is(err, ErrAlreadyReleased) {
			continue
		}
		s.c.metrics.rollbackFails.Inc()
		if first == nil {
			first = fmt.Errorf("rollback: slice %s on %s not released: %w", p.handle, p.node, err)
		}
	}
	return first
}

// acquireSlice acquires one routed slice, taking at most one wrong_node
// re-route to the owner the server names (safe: a wrong_node rejection
// acquires nothing, so retrying elsewhere cannot double-acquire). Returns
// the grant info and the node that actually granted.
func (s *Session) acquireSlice(ctx context.Context, tb *traceBuilder, sl routeSlice) (GrantInfo, string, error) {
	node := sl.node
	for attempt := 0; ; attempt++ {
		id, ok := s.ids[node]
		if !ok {
			return GrantInfo{}, node, fmt.Errorf("rnlp client: no session on node %q", node)
		}
		req := AcquireRequest{SessionID: id, Read: sl.read, Write: sl.write}
		var spanID string
		var wireStart int64
		if tb != nil {
			spanID = newTraceID()
			req.TraceID = tb.trace.ID
			req.SpanID = spanID
			wireStart = time.Now().UnixNano()
		}
		var info GrantInfo
		err := s.c.post(ctx, node, "/v1/acquire", req, &info)
		if tb != nil {
			sp := Span{ID: spanID, Parent: tb.rootID(), Name: "wire", Node: node,
				StartUnixNS: wireStart, EndUnixNS: time.Now().UnixNano()}
			if err != nil {
				sp.Attrs = map[string]string{"error": err.Error()}
			}
			tb.add(sp)
			for _, ws := range info.Spans {
				tb.add(Span{Parent: ws.Parent, Name: ws.Name, Node: ws.Node,
					StartUnixNS: ws.StartUnixNS, EndUnixNS: ws.EndUnixNS, Attrs: ws.Attrs})
			}
		}
		if err == nil {
			return info, node, nil
		}
		if attempt == 0 && errors.Is(err, ErrWrongNode) {
			var we *wireError
			if errors.As(err, &we) && we.owner != "" && we.owner != node {
				if _, known := s.c.addrOf[we.owner]; known {
					s.c.metrics.reroutes.Inc()
					node = we.owner
					continue
				}
			}
		}
		return GrantInfo{}, node, err
	}
}

// Read is shorthand for Acquire(ctx, resources, nil).
func (s *Session) Read(ctx context.Context, resources ...ResourceID) (*Grant, error) {
	return s.Acquire(ctx, resources, nil)
}

// Write is shorthand for Acquire(ctx, nil, resources).
func (s *Session) Write(ctx context.Context, resources ...ResourceID) (*Grant, error) {
	return s.Acquire(ctx, nil, resources)
}

// Release ends the grant, releasing its node slices in reverse acquisition
// order. Releasing twice returns ErrAlreadyReleased; if the lease expired
// first, the server already released the footprint and ErrLeaseExpired
// (or ErrSessionNotFound, if the session was reaped) is returned — exactly
// one side wins.
func (s *Session) Release(g *Grant) error {
	if g == nil || len(g.parts) == 0 {
		return ErrAlreadyReleased
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstErr error
	for i := len(g.parts) - 1; i >= 0; i-- {
		p := g.parts[i]
		err := s.c.post(ctx, p.node, "/v1/release", ReleaseRequest{SessionID: s.ids[p.node], Handle: p.handle}, nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	g.parts = nil
	if g.tb != nil {
		now := time.Now().UnixNano()
		g.tb.add(Span{ID: newTraceID(), Parent: g.tb.rootID(), Name: "hold",
			StartUnixNS: g.holdStart, EndUnixNS: now})
		s.c.traces.add(g.tb.finish(now, nil))
		g.tb = nil
	}
	s.c.metrics.releaseNS.Observe(time.Since(start).Nanoseconds())
	return firstErr
}

// post sends one JSON request to a node and decodes the response into out
// (which may be nil). Non-2xx responses decode the ErrorBody and map its
// code onto the client sentinels.
func (c *Client) post(ctx context.Context, node, path string, in, out any) error {
	addr, ok := c.addrOf[node]
	if !ok {
		return fmt.Errorf("rnlp client: unknown node %q", node)
	}
	buf := wire.GetBuf()
	body, err := appendRequest(*buf, in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		// The transport may still be reading the body, so its buffer stays
		// out of the pool.
		c.metrics.nodeUnreach.Inc()
		return &NodeUnreachableError{Node: node, Addr: addr, Err: err}
	}
	err = decodeResponse(resp, out)
	resp.Body.Close()
	// Closing the response body is what lets a request's body be reused.
	*buf = body
	wire.PutBuf(buf)
	return err
}

// getJSON fetches a URL and decodes the JSON response.
func (c *Client) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.metrics.nodeUnreach.Inc()
		return &NodeUnreachableError{Addr: url, Err: err}
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// wireError is a decoded service error: the sentinel it maps onto plus the
// structured detail the wire carried (today only the owning node of a
// wrong_node rejection, which the re-route path needs programmatically).
type wireError struct {
	sentinel error
	owner    string
	msg      string
}

func (e *wireError) Error() string {
	if e.owner != "" {
		return fmt.Sprintf("%s (owner %s): %s", e.sentinel.Error(), e.owner, e.msg)
	}
	return fmt.Sprintf("%s: %s", e.sentinel.Error(), e.msg)
}

func (e *wireError) Unwrap() error { return e.sentinel }

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var eb ErrorBody
		if json.Unmarshal(buf, &eb) == nil && eb.Code != "" {
			if sentinel := codeErr(eb.Code); sentinel != nil {
				return &wireError{sentinel: sentinel, owner: eb.Owner, msg: eb.Error}
			}
			return fmt.Errorf("rnlp client: %s: %s", eb.Code, eb.Error)
		}
		return fmt.Errorf("rnlp client: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(buf)))
	}
	switch out := out.(type) {
	case nil:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	case *GrantInfo:
		buf := wire.GetBuf()
		body, err := wire.ReadLimited(resp.Body, *buf, maxReply)
		if err == nil {
			err = unmarshalGrantInfo(body, out)
		}
		*buf = body
		wire.PutBuf(buf)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxReply bounds a grant reply, as rnlpd bounds a request; a longer one is
// cut there and fails to parse.
const maxReply = 1 << 20
