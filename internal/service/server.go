// Package service is the distributed lock-service tier behind cmd/rnlpd:
// it wraps a rwrnlp.Protocol in sessions with leases, monotonic fencing
// tokens per resource component, and consistent-hash placement of
// components onto the nodes of a static cluster map.
//
// The analytical anchor is DPCP-p-style distributed locking: each resource
// component is an independent RSM (the in-process sharding of PR 3), so
// placing whole components on nodes preserves the per-component Theorem
// 1/2 structure exactly — a node serves its components with the local
// protocol, and a footprint spanning nodes is acquired slice-by-slice in
// ascending component order, the same discipline the in-process
// cross-component slow path uses (all hold-wait edges point up one global
// order, so the cluster stays deadlock-free).
//
// Failure model: a client session holds a lease; heartbeats renew it. When
// a client crashes or partitions away, the lease runs out and the server
// (a) cancels the session's in-flight acquisitions through the protocol's
// context-cancel path and (b) releases every grant it holds — exactly once,
// racing a concurrent normal Release safely. Every grant carries one
// fencing token per component, minted from a per-component monotonic
// counter; a downstream service guards lock-protected effects by
// presenting the token to Check (POST /v1/fence), which deterministically
// rejects tokens of released/expired grants and tokens older than the
// component's high-water mark.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
)

// Service error sentinels (mapped onto wire codes by the HTTP layer).
var (
	ErrSessionNotFound = errors.New("rnlpd: session not found")
	ErrLeaseExpired    = errors.New("rnlpd: lease expired")
	ErrAlreadyReleased = errors.New("rnlpd: already released")
	ErrStaleToken      = errors.New("rnlpd: stale fencing token")
	ErrShuttingDown    = errors.New("rnlpd: shutting down")
)

// errWrongNode carries the owning node of a misrouted component.
type errWrongNode struct {
	component int
	owner     string
}

func (e *errWrongNode) Error() string {
	return fmt.Sprintf("rnlpd: component %d is placed on node %q", e.component, e.owner)
}

// Config configures a Server.
type Config struct {
	// Spec is the resource system (required).
	Spec *rwrnlp.Spec
	// Options configures the wrapped Protocol. The server always appends
	// nothing — pass WithMetrics/WithTimeSeries/WithFlightRecorder etc. to
	// get the full DebugMux surface (cmd/rnlpd does).
	Options []rwrnlp.Option

	// LeaseTTL is the default session lease (0 = 5s); MaxLeaseTTL caps
	// client-requested leases (0 = 12×LeaseTTL).
	LeaseTTL    time.Duration
	MaxLeaseTTL time.Duration
	// SweepInterval is the lease-expiry scan period (0 = LeaseTTL/4,
	// floored at 10ms). Expiry is also detected lazily on every session
	// lookup, so the sweeper only bounds how long an idle crashed client's
	// footprint can linger.
	SweepInterval time.Duration

	// Node is this node's identity in Nodes; Nodes is the static cluster
	// map shared by every node and every client. Empty means a single node
	// named "local" owning every component.
	Node  string
	Nodes []string
	// VNodes is the consistent-hash virtual-node count (0 = client.DefaultVNodes).
	VNodes int

	// AcquireTimeout bounds how long one acquire handler may block
	// (0 = 60s) so abandoned-but-undetected requests cannot pin handler
	// goroutines forever.
	AcquireTimeout time.Duration

	// now substitutes the clock in tests.
	now func() time.Time
}

// Server is one rnlpd node: the wrapped Protocol plus session, lease,
// fencing, and placement state. Create with NewServer, serve Handler,
// Close on shutdown.
type Server struct {
	cfg   Config
	p     *rwrnlp.Protocol
	place *client.Placement
	owned []bool // by component index

	mu         sync.Mutex
	sessions   map[string]*session
	nextSessID uint64
	nextHandle atomic.Uint64 // atomic: minted while a session lock is held

	fence *fenceTable

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool
}

// NewServer builds the node and starts its lease sweeper.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Spec == nil {
		return nil, errors.New("rnlpd: Config.Spec is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if cfg.MaxLeaseTTL <= 0 {
		cfg.MaxLeaseTTL = 12 * cfg.LeaseTTL
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.LeaseTTL / 4
	}
	if cfg.SweepInterval < 10*time.Millisecond {
		cfg.SweepInterval = 10 * time.Millisecond
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = 60 * time.Second
	}
	if cfg.Node == "" {
		cfg.Node = "local"
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{cfg.Node}
	}
	found := false
	for _, n := range cfg.Nodes {
		if n == cfg.Node {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("rnlpd: node %q not in cluster map %v", cfg.Node, cfg.Nodes)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		p:        rwrnlp.New(cfg.Spec, cfg.Options...),
		place:    client.NewPlacement(cfg.Nodes, cfg.VNodes),
		sessions: make(map[string]*session),
		fence:    newFenceTable(cfg.Spec.NumComponents()),
	}
	s.owned = make([]bool, cfg.Spec.NumComponents())
	for c := range s.owned {
		s.owned[c] = s.place.Owner(c) == cfg.Node
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.sweep()
	return s, nil
}

// Protocol exposes the wrapped protocol (for the daemon's DebugMux and for
// tests).
func (s *Server) Protocol() *rwrnlp.Protocol { return s.p }

// Placement exposes the node's consistent-hash ring.
func (s *Server) Placement() *client.Placement { return s.place }

// Owned reports whether this node owns the given component.
func (s *Server) Owned(component int) bool {
	return component >= 0 && component < len(s.owned) && s.owned[component]
}

// Close drains the node: it stops the sweeper, cancels every pending
// acquisition, releases every live grant, and closes the wrapped Protocol.
// Idempotent and safe to call concurrently with in-flight handlers (they
// observe cancellation or ErrShuttingDown).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.cancel() // cancels the sweeper and, transitively, every session ctx
		s.wg.Wait()
		s.mu.Lock()
		all := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			all = append(all, sess)
		}
		s.mu.Unlock()
		for _, sess := range all {
			s.expireSession(sess)
		}
		_ = s.p.Close()
	})
	return nil
}

// sweep is the lease-expiry scanner.
func (s *Server) sweep() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			now := s.cfg.now()
			s.mu.Lock()
			var due []*session
			for _, sess := range s.sessions {
				sess.mu.Lock()
				if now.After(sess.deadline) {
					due = append(due, sess)
				}
				sess.mu.Unlock()
			}
			s.mu.Unlock()
			for _, sess := range due {
				s.expireSession(sess)
			}
		}
	}
}

// session is one client's lease and footprint on this node.
type session struct {
	id     string
	ttl    time.Duration
	ctx    context.Context // canceled on expiry/close: withdraws pending acquires
	cancel context.CancelFunc

	mu       sync.Mutex
	deadline time.Time
	expired  bool
	grants   map[string]*grant
}

// grant is one held acquisition. released arbitrates the expiry-vs-release
// race: whoever flips it owns the one-and-only Protocol.Release.
type grant struct {
	handle   string
	tok      rwrnlp.Token
	comps    []int
	tokens   []uint64
	released atomic.Bool
}

// OpenSession creates a session with the requested TTL (0 = default,
// clamped to MaxLeaseTTL) and returns its lease view.
func (s *Server) OpenSession(ttl time.Duration) (client.SessionInfo, error) {
	if s.closed.Load() {
		return client.SessionInfo{}, ErrShuttingDown
	}
	if ttl <= 0 {
		ttl = s.cfg.LeaseTTL
	}
	if ttl > s.cfg.MaxLeaseTTL {
		ttl = s.cfg.MaxLeaseTTL
	}
	s.mu.Lock()
	s.nextSessID++
	id := "s" + strconv.FormatUint(s.nextSessID, 10)
	sess := &session{id: id, ttl: ttl, grants: make(map[string]*grant)}
	sess.ctx, sess.cancel = context.WithCancel(s.ctx)
	sess.deadline = s.cfg.now().Add(ttl)
	s.sessions[id] = sess
	s.mu.Unlock()
	return s.sessionInfo(sess), nil
}

func (s *Server) sessionInfo(sess *session) client.SessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return client.SessionInfo{
		ID:             sess.id,
		TTLMS:          sess.ttl.Milliseconds(),
		DeadlineUnixMS: sess.deadline.UnixMilli(),
	}
}

// lookup resolves a live session, expiring it lazily if its deadline has
// passed (so correctness never depends on sweeper cadence).
func (s *Server) lookup(id string) (*session, error) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return nil, ErrSessionNotFound
	}
	sess.mu.Lock()
	expired := sess.expired
	due := !expired && s.cfg.now().After(sess.deadline)
	sess.mu.Unlock()
	if due {
		s.expireSession(sess)
		expired = true
	}
	if expired {
		return nil, ErrLeaseExpired
	}
	return sess, nil
}

// Heartbeat renews the session's lease.
func (s *Server) Heartbeat(id string) (client.SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return client.SessionInfo{}, err
	}
	sess.mu.Lock()
	// lookup can race the sweeper: re-check under the session lock.
	if sess.expired {
		sess.mu.Unlock()
		return client.SessionInfo{}, ErrLeaseExpired
	}
	sess.deadline = s.cfg.now().Add(sess.ttl)
	sess.mu.Unlock()
	return s.sessionInfo(sess), nil
}

// CloseSession ends a session cooperatively, releasing its footprint. A
// close racing lease expiry is fine: both paths converge on expireSession.
func (s *Server) CloseSession(id string) error {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return ErrSessionNotFound
	}
	s.expireSession(sess)
	return nil
}

// expireSession tears a session down exactly once: marks it expired,
// cancels its pending acquisitions, releases every grant it still holds,
// and unregisters it.
func (s *Server) expireSession(sess *session) {
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		return
	}
	sess.expired = true
	grants := make([]*grant, 0, len(sess.grants))
	for _, g := range sess.grants {
		grants = append(grants, g)
	}
	sess.grants = nil
	sess.mu.Unlock()
	sess.cancel()
	for _, g := range grants {
		_ = s.releaseGrant(g)
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
}

// releaseGrant performs the one-and-only release of a grant. The loser of
// the expiry-vs-Release race gets ErrAlreadyReleased here (the HTTP layer
// refines it to ErrLeaseExpired when the session as a whole expired).
func (s *Server) releaseGrant(g *grant) error {
	if !g.released.CompareAndSwap(false, true) {
		return ErrAlreadyReleased
	}
	s.fence.retire(g.comps, g.tokens)
	return s.p.Release(g.tok)
}

// componentsOf returns the ascending distinct components of a footprint —
// the fencing list's order — and checks placement: every component must be
// owned by this node.
func (s *Server) componentsOf(read, write []client.ResourceID) ([]int, error) {
	spec := s.cfg.Spec
	q := spec.NumResources()
	var comps []int
	for _, ids := range [2][]client.ResourceID{read, write} {
		for _, r := range ids {
			if r < 0 || r >= q {
				return nil, fmt.Errorf("%w: resource %d not in [0,%d)", rwrnlp.ErrUnknownResource, r, q)
			}
			c := spec.Component(rwrnlp.ResourceID(r))
			// A footprint spans a handful of components: sorted insertion
			// into the slice beats a set.
			if i, found := slices.BinarySearch(comps, c); !found {
				comps = slices.Insert(comps, i, c)
			}
		}
	}
	if len(comps) == 0 {
		return nil, rwrnlp.ErrEmptyRequest
	}
	for _, c := range comps {
		if !s.Owned(c) {
			return nil, &errWrongNode{component: c, owner: s.place.Owner(c)}
		}
	}
	return comps, nil
}

// acquireCtx is the one context an acquisition runs under: the transport
// context (whose values, the trace tag among them, it passes through), ended
// also by the session's lease context and by AcquireTimeout. The runtime
// consults a context's cancellation only when it has to park, so nothing is
// derived or registered until then — an acquire that is granted without
// blocking pays for this struct alone — and the timeout runs from that
// moment, which is when the handler starts to block.
type acquireCtx struct {
	context.Context                 // transport
	sess            context.Context // lease: expiry or shutdown withdraws the request
	timeout         time.Duration

	once   sync.Once
	armed  context.Context
	cancel context.CancelFunc
	stop   func() bool
}

func (c *acquireCtx) arm() {
	c.once.Do(func() {
		c.armed, c.cancel = context.WithTimeout(c.Context, c.timeout)
		c.stop = context.AfterFunc(c.sess, c.cancel)
	})
}

func (c *acquireCtx) Deadline() (time.Time, bool) { c.arm(); return c.armed.Deadline() }
func (c *acquireCtx) Done() <-chan struct{}       { c.arm(); return c.armed.Done() }
func (c *acquireCtx) Err() error                  { c.arm(); return c.armed.Err() }

// release frees what arm registered, if it ran. Call it once the acquisition
// has returned, on the goroutine that ran it.
func (c *acquireCtx) release() {
	if c.cancel != nil {
		c.stop()
		c.cancel()
	}
}

// Acquire blocks until the session holds the footprint, then registers the
// grant and mints its fencing tokens. ctx is the transport context (client
// disconnect cancels it); lease expiry and server shutdown cancel the wait
// through the session context.
func (s *Server) Acquire(ctx context.Context, sessionID string, read, write []client.ResourceID) (client.GrantInfo, error) {
	return s.AcquireTraced(ctx, sessionID, read, write, "", "")
}

// AcquireTraced is Acquire carrying the client's distributed-trace context.
// When traceID is non-empty the runtime acquisition is tagged with it (so
// flight records, attribution chains, and exemplars on this node join back to
// the trace) and the grant returns two server spans, children of parentSpan:
// "admission" (session/lease/placement checks) and "wait" (the blocking
// runtime acquisition), the latter annotated with the Attributor's delay
// decomposition and the trace IDs of the requests it waited behind.
func (s *Server) AcquireTraced(ctx context.Context, sessionID string, read, write []client.ResourceID, traceID, parentSpan string) (client.GrantInfo, error) {
	admStart := s.cfg.now().UnixNano()
	if s.closed.Load() {
		return client.GrantInfo{}, ErrShuttingDown
	}
	sess, err := s.lookup(sessionID)
	if err != nil {
		return client.GrantInfo{}, err
	}
	comps, err := s.componentsOf(read, write)
	if err != nil {
		return client.GrantInfo{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if traceID != "" {
		ctx = rwrnlp.ContextWithTag(ctx, traceID)
	}
	actx := &acquireCtx{Context: ctx, sess: sess.ctx, timeout: s.cfg.AcquireTimeout}
	defer actx.release()

	ids := make([]rwrnlp.ResourceID, len(read)+len(write))
	for i, r := range read {
		ids[i] = rwrnlp.ResourceID(r)
	}
	for i, r := range write {
		ids[len(read)+i] = rwrnlp.ResourceID(r)
	}
	waitStart := s.cfg.now().UnixNano()
	tok, err := s.p.Acquire(actx, ids[:len(read):len(read)], ids[len(read):])
	waitEnd := s.cfg.now().UnixNano()
	if err != nil {
		if sess.ctx.Err() != nil {
			if s.closed.Load() {
				return client.GrantInfo{}, ErrShuttingDown
			}
			return client.GrantInfo{}, ErrLeaseExpired
		}
		return client.GrantInfo{}, err
	}

	sess.mu.Lock()
	if sess.expired {
		// The acquisition won its race against cancellation, but the lease
		// is gone: hand the token straight back.
		sess.mu.Unlock()
		_ = s.p.Release(tok)
		return client.GrantInfo{}, ErrLeaseExpired
	}
	handle := "h" + strconv.FormatUint(s.nextHandle.Add(1), 10)
	g := &grant{handle: handle, tok: tok, comps: comps, tokens: s.fence.mint(comps)}
	sess.grants[handle] = g
	sess.mu.Unlock()

	info := client.GrantInfo{Handle: handle, Fencing: make([]client.ComponentToken, len(comps))}
	for i, c := range comps {
		info.Fencing[i] = client.ComponentToken{Component: c, Token: g.tokens[i]}
	}
	if traceID != "" {
		info.Spans = []client.WireSpan{
			{Name: "admission", Node: s.cfg.Node, Parent: parentSpan,
				StartUnixNS: admStart, EndUnixNS: waitStart},
			{Name: "wait", Node: s.cfg.Node, Parent: parentSpan,
				StartUnixNS: waitStart, EndUnixNS: waitEnd,
				Attrs: s.waitAttrs(traceID)},
		}
	}
	return info, nil
}

// untrackedAttrs is the wait span's attributes on the common path, shared by
// every such span: read it, never write it.
var untrackedAttrs = map[string]string{"path": "untracked"}

// waitAttrs joins the trace ID back to the Attributor's decomposition of the
// runtime wait: total delay and its per-cause parts (logical shard ticks), the
// wait edges (blocker request IDs), and the trace IDs of any blockers whose
// own chains are still retained — the cross-trace causality edge. A tagged
// acquisition that never reached the attributor (fast-path hit, attribution
// off, or chain evicted) yields {"path": "untracked"}.
func (s *Server) waitAttrs(traceID string) map[string]string {
	c, ok := s.p.ChainByTag(traceID)
	if !ok {
		return untrackedAttrs
	}
	attrs := map[string]string{
		"req":         strconv.FormatUint(uint64(c.Req), 10),
		"delay_ticks": strconv.FormatInt(c.Delay, 10),
	}
	for _, p := range c.Parts {
		attrs[p.Component] = strconv.FormatInt(p.Span, 10)
	}
	fmtIDs := func(ids []rwrnlp.ReqID) string {
		var b []byte
		for i, id := range ids {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, uint64(id), 10)
		}
		return string(b)
	}
	if len(c.IssueBlockers) > 0 {
		attrs["issue_blockers"] = fmtIDs(c.IssueBlockers)
	}
	if len(c.EntitleBlockers) > 0 {
		attrs["entitle_blockers"] = fmtIDs(c.EntitleBlockers)
	}
	for id, tag := range c.BlockerTags {
		attrs["blocker_trace_"+strconv.FormatUint(id, 10)] = tag
	}
	return attrs
}

// Release releases a grant by handle. Exactly one of Release and lease
// expiry wins; the loser gets ErrLeaseExpired (session gone) or
// ErrAlreadyReleased (grant gone or double release).
func (s *Server) Release(sessionID, handle string) error {
	sess, err := s.lookup(sessionID)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		return ErrLeaseExpired
	}
	g := sess.grants[handle]
	delete(sess.grants, handle)
	sess.mu.Unlock()
	if g == nil {
		return ErrAlreadyReleased
	}
	if err := s.releaseGrant(g); errors.Is(err, ErrAlreadyReleased) {
		// Lost the race to expiry after the handle lookup.
		return ErrLeaseExpired
	} else if err != nil {
		return err
	}
	return nil
}

// Fence checks a fencing token (see fenceTable.check).
func (s *Server) Fence(component int, token uint64) error {
	if component < 0 || component >= s.cfg.Spec.NumComponents() {
		return fmt.Errorf("%w: component %d out of range", rwrnlp.ErrUnknownResource, component)
	}
	if !s.Owned(component) {
		return &errWrongNode{component: component, owner: s.place.Owner(component)}
	}
	return s.fence.check(component, token)
}

// SpecInfo describes this node for GET /v1/spec.
func (s *Server) SpecInfo() client.SpecInfo {
	spec := s.cfg.Spec
	comps := make([][]client.ResourceID, spec.NumComponents())
	for c := range comps {
		rs := spec.ComponentResources(c)
		comps[c] = make([]client.ResourceID, len(rs))
		for i, r := range rs {
			comps[c][i] = client.ResourceID(r)
		}
	}
	return client.SpecInfo{
		Resources:     spec.NumResources(),
		Components:    comps,
		Node:          s.cfg.Node,
		Nodes:         append([]string(nil), s.cfg.Nodes...),
		VNodes:        s.place.VNodes(),
		LeaseTTLMS:    s.cfg.LeaseTTL.Milliseconds(),
		MaxLeaseTTLMS: s.cfg.MaxLeaseTTL.Milliseconds(),
	}
}

// SessionCount reports live sessions (for tests and ops).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// fenceTable is the per-component fencing state: a monotonic mint counter,
// the set of active (currently-held) tokens, and the high-water mark of
// presented tokens. One mutex guards all three — fencing checks are
// control-plane operations, not the lock's hot path.
type fenceTable struct {
	mu     sync.Mutex
	next   []uint64
	active []map[uint64]struct{}
	high   []uint64
}

func newFenceTable(components int) *fenceTable {
	t := &fenceTable{
		next:   make([]uint64, components),
		active: make([]map[uint64]struct{}, components),
		high:   make([]uint64, components),
	}
	for i := range t.active {
		t.active[i] = make(map[uint64]struct{})
	}
	return t
}

// mint issues one strictly-increasing token per component, marking each
// active. comps must be validated and sorted.
func (t *fenceTable) mint(comps []int) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(comps))
	for i, c := range comps {
		t.next[c]++
		out[i] = t.next[c]
		t.active[c][out[i]] = struct{}{}
	}
	return out
}

// retire deactivates a grant's tokens (release or expiry).
func (t *fenceTable) retire(comps []int, tokens []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range comps {
		delete(t.active[c], tokens[i])
	}
}

// check accepts a token iff it is active (its grant is still held) and not
// below the component's high-water mark; acceptance advances the mark.
// Both failure modes are deterministic: a released or expired grant's
// token is never active again (tokens are never reused), and once a newer
// token has been presented, every older one is stale forever.
func (t *fenceTable) check(component int, token uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.active[component][token]; !ok {
		return fmt.Errorf("%w: token %d is not an active grant on component %d", ErrStaleToken, token, component)
	}
	if token < t.high[component] {
		return fmt.Errorf("%w: token %d below high-water %d on component %d", ErrStaleToken, token, t.high[component], component)
	}
	t.high[component] = token
	return nil
}

// granted reports the latest minted token of a component (tests).
func (t *fenceTable) granted(component int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next[component]
}
