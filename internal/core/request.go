package core

import "fmt"

// Time is a logical time instant. The RSM never reads a clock: every
// invocation carries its own instant, supplied by the caller (the
// discrete-event simulator, or a monotonic stamp in the runtime plane).
// Units are opaque to the RSM; the simulator uses nanosecond ticks.
type Time int64

// ReqID identifies a request R_{i,k} issued to an RSM. IDs are unique for
// the lifetime of the RSM, never reused, and strictly increase in issuance
// order — a request's ID doubles as its timestamp ts(R_{i,k}) per Rule G1:
// the RSM serializes invocations (Rule G4), so issuance order is a total
// order consistent with the caller-supplied Time values.
type ReqID int64

// Kind distinguishes read requests R^r from write requests R^w.
// A mixed request (Sec. 3.5) is a write request whose read subset N^r is
// non-empty; there is no separate kind for it.
type Kind int

const (
	// KindRead is a read-only request: N^w = ∅.
	KindRead Kind = iota
	// KindWrite is a write request: N^w ≠ ∅ (possibly mixed, N^r ≠ ∅).
	KindWrite
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// State is the lifecycle state of a request.
//
//	Waiting ──► Entitled ──► Satisfied ──► Complete
//	   │            │ (incremental: partial grants while Entitled)
//	   └────────────┴──► Canceled          (upgrade pair halves only)
//	   └──► Satisfied  (immediate satisfaction, Rules R1/W1)
type State int

const (
	// StateWaiting: issued, enqueued, neither entitled nor satisfied.
	StateWaiting State = iota
	// StateEntitled: "next in line" (Defs. 3–4); blocked only by satisfied
	// requests of the opposite kind; remains entitled until satisfied.
	StateEntitled
	// StateSatisfied: holds all resources in its lock set; executing its
	// critical section.
	StateSatisfied
	// StateComplete: critical section finished; all resources released.
	StateComplete
	// StateCanceled: removed without being run to completion. Only the two
	// halves of an upgradeable request (Sec. 3.6) can be canceled.
	StateCanceled
)

func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateEntitled:
		return "entitled"
	case StateSatisfied:
		return "satisfied"
	case StateComplete:
		return "complete"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// upgrade roles for the two halves of an upgradeable request.
const (
	roleNone   = 0
	roleURead  = 1 // R^{u_r}: the optimistic read half
	roleUWrite = 2 // R^{u_w}: the pessimistic write half
)

// request is the RSM's internal representation of one resource request.
type request struct {
	id ReqID // doubles as the timestamp ts(R), see ReqID

	kind Kind

	// Needed sets (Sec. 3.5 notation): N^r, N^w, and N = N^r ∪ N^w.
	needRead  ResourceSet
	needWrite ResourceSet
	need      ResourceSet

	// extraWrite is D \ N in expanded mode (Sec. 3.2): resources a write is
	// forced to additionally acquire (in write mode) to avoid inconsistent
	// phases. Empty for reads and in placeholder mode.
	extraWrite ResourceSet

	// placeholders is M = (∪_{ℓ∈N} S(ℓ)) \ N in placeholder mode
	// (Sec. 3.4): write queues holding a placeholder entry for this request.
	// Placeholder entries are removed when the request becomes entitled or
	// satisfied.
	placeholders ResourceSet

	// wqSet / rqSet: the write/read queues this request is (really) enqueued
	// in while incomplete. For a write, wqSet = N ∪ extraWrite; for a read,
	// rqSet = N.
	wqSet ResourceSet
	rqSet ResourceSet

	// wlock and pertain are the two derived sets every conflict test reads,
	// fixed by buildRequest (their inputs never change afterwards) so that
	// the blocker scans union nothing:
	//
	//   - wlock = N^w ∪ extraWrite: what the request locks in write mode when
	//     satisfied;
	//   - pertain = D = N ∪ extraWrite: everything it pertains to for conflict
	//     purposes. Placeholder queues are excluded — a placeholder never locks
	//     anything and never conflicts.
	wlock   ResourceSet
	pertain ResourceSet

	state State

	// Timestamps for metrics (acquisition delay analysis).
	issueT    Time
	entitleT  Time
	satisfyT  Time
	completeT Time

	// Upgradeable-request pairing (Sec. 3.6). groupPeer points at the other
	// half only while that half is incomplete (retire clears it, so a
	// recycled record is never mistaken for the peer); pair is its ID for
	// good, which is what events report.
	group       int64 // 0 = not part of an upgrade pair
	groupPeer   *request
	pair        ReqID
	upgradeRole int

	// Incremental locking (Sec. 3.7).
	incremental bool
	granted     ResourceSet // resources currently locked by this request
	want        ResourceSet // outstanding incremental asks not yet granted
	askT        Time        // time of the oldest outstanding ask (metrics)
	incDelay    Time        // cumulative acquisition delay across increments

	// fresh marks a request between issuance and its first R1/W1
	// immediate-satisfaction evaluation. Waiting WRITES are only eligible
	// for immediate satisfaction while fresh: an unblocked older write
	// always proceeds through the Def. 4 entitle→satisfy path instead
	// (same instant, paper-canonical transitions — Props. E7/E9). Reads
	// stay eligible at every invocation (Finding 3: Def. 3's trigger can be
	// false for an unblocked read, which would otherwise strand).
	fresh bool

	// tag is an opaque caller annotation (task/job identity) carried into
	// events and request infos.
	tag any
}

// conflictsWith reports whether r and o conflict: they pertain to a common
// resource that at least one of them writes (Sec. 2, "Resource model").
func (r *request) conflictsWith(o *request) bool {
	if r == o {
		return false
	}
	return r.wlock.Intersects(o.pertain) || o.wlock.Intersects(r.pertain)
}

// RequestInfo is an immutable snapshot of a request's externally visible
// state, returned by RSM.Info.
type RequestInfo struct {
	ID        ReqID
	Kind      Kind
	State     State
	NeedRead  ResourceSet
	NeedWrite ResourceSet
	// Extra is the expansion extras (expanded mode) or placeholder set
	// (placeholder mode) — the resources the request pertains to beyond N.
	Extra       ResourceSet
	Placeholder bool // true if Extra holds placeholder queues rather than locked extras
	Granted     ResourceSet
	Incremental bool
	Upgrade     bool // part of an upgradeable pair
	IssueT      Time
	EntitleT    Time // valid only if the request was ever entitled
	SatisfyT    Time // valid only if State ≥ Satisfied
	CompleteT   Time // valid only if State == Complete
	IncDelay    Time // cumulative incremental acquisition delay (Sec. 3.7)
	Tag         any
}

// IncDelay is the cumulative acquisition delay across all incremental asks
// (Sec. 3.7); it is meaningful only for incremental requests.

// AcquisitionDelay returns the request's acquisition delay: the time between
// issuance and satisfaction (Sec. 2). For incremental requests it is the
// cumulative delay across all incremental asks (Sec. 3.7). It returns 0 for
// requests that have not been satisfied.
func (ri RequestInfo) AcquisitionDelay() Time {
	if ri.Incremental {
		return ri.IncDelay
	}
	if ri.State != StateSatisfied && ri.State != StateComplete {
		return 0
	}
	return ri.SatisfyT - ri.IssueT
}

func (r *request) info() RequestInfo {
	ri := RequestInfo{
		ID:          r.id,
		Kind:        r.kind,
		State:       r.state,
		NeedRead:    r.needRead.Clone(),
		NeedWrite:   r.needWrite.Clone(),
		Granted:     r.granted.Clone(),
		Incremental: r.incremental,
		Upgrade:     r.group != 0,
		IncDelay:    r.incDelay,
		IssueT:      r.issueT,
		EntitleT:    r.entitleT,
		SatisfyT:    r.satisfyT,
		CompleteT:   r.completeT,
		Tag:         r.tag,
	}
	if !r.extraWrite.Empty() {
		ri.Extra = r.extraWrite.Clone()
	} else if !r.placeholders.Empty() {
		ri.Extra = r.placeholders.Clone()
		ri.Placeholder = true
	}
	return ri
}
