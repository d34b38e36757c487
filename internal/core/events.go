package core

import "fmt"

// EventType classifies the protocol transitions the RSM reports to its
// Observer. Every transition defined by the paper's rules maps to exactly
// one event, which makes traces replayable and machine-checkable
// (internal/trace verifies the paper's lemmas against event streams).
type EventType int

const (
	// EvIssued: a request was issued and enqueued (Rules G1, R1, W1).
	EvIssued EventType = iota
	// EvEntitled: a request became entitled (Defs. 3–4).
	EvEntitled
	// EvSatisfied: a request was satisfied and now holds its lock set
	// (Rules R1, R2, W1, W2).
	EvSatisfied
	// EvGranted: an incremental request was granted a subset of its
	// resources while still entitled (Sec. 3.7).
	EvGranted
	// EvCompleted: a critical section completed; resources released
	// (Rule G3).
	EvCompleted
	// EvCanceled: one half of an upgradeable pair was removed (Sec. 3.6).
	EvCanceled
	// EvPlaceholdersRemoved: a write's placeholder entries were dequeued
	// because it became entitled or satisfied (Sec. 3.4).
	EvPlaceholdersRemoved
	// EvReadSegmentDone: the optimistic read half of an upgradeable request
	// finished; Resources reports the read locks released (Sec. 3.6).
	EvReadSegmentDone
)

func (e EventType) String() string {
	switch e {
	case EvIssued:
		return "issued"
	case EvEntitled:
		return "entitled"
	case EvSatisfied:
		return "satisfied"
	case EvGranted:
		return "granted"
	case EvCompleted:
		return "completed"
	case EvCanceled:
		return "canceled"
	case EvPlaceholdersRemoved:
		return "placeholders-removed"
	case EvReadSegmentDone:
		return "read-segment-done"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one protocol transition. Events within a single invocation share
// the invocation's Time and are emitted in deterministic order.
//
// Events exist only for an attached Observer: an RSM without one builds none
// (see SetObserver). An Event is the observer's to keep. Its three sets are
// snapshots taken at the transition — values of their own, which no later
// invocation changes, even once the request's record serves another request —
// and Blockers is allocated for this event alone.
type Event struct {
	T         Time
	Type      EventType
	Req       ReqID
	Kind      Kind
	Resources ResourceSet // resources affected (lock set, grant set, …)
	// Read and Write are the request's read-mode and write-mode lock sets
	// (N^r and N^w ∪ extras), so consumers — e.g. the trace checker — can
	// reconstruct lock modes without access to the RSM.
	Read  ResourceSet
	Write ResourceSet
	// Pair is the other half of an upgradeable pair (Sec. 3.6), or 0 for
	// plain requests. Consumers need it to attribute the write half's waits
	// correctly: its bound applies per wait, restarting at EvReadSegmentDone.
	Pair ReqID
	// Incremental marks a Sec. 3.7 incremental request, whose
	// issue-to-satisfaction span includes hold phases between grants and is
	// therefore not an acquisition delay (use the cumulative ask delays).
	Incremental bool
	Tag         any // the request's caller-supplied tag
	// Blockers names the requests this one is causally waiting behind, per
	// the RSM's queue state at the instant of the event, in timestamp order:
	//
	//   - on EvIssued: the entitled and satisfied requests it conflicts with
	//     (the blocking condition of Rules R1/W1 — why it was not satisfied
	//     immediately). Empty when the request was satisfied at issuance.
	//   - on EvEntitled: the satisfied requests in its blocking set B(R, t)
	//     (Rules R2/W2 — for an entitled writer, the current read phase it
	//     must outwait; for an entitled reader, the conflicting write holder).
	//
	// Nil on every other event type. Consumers (obs.Attributor, the flight
	// recorder) chain these edges into causal blocking attributions: reader ←
	// entitled writer ← read-phase holders is the paper's Fig. 2 situation.
	// The slice is freshly allocated per event and owned by the consumer
	// (obs.Pipeline keeps it as the request's wait edges).
	Blockers []ReqID
}

func (e Event) String() string {
	return fmt.Sprintf("t=%d %s req=%d (%s) %s", e.T, e.Type, e.Req, e.Kind, e.Resources)
}

// Observer receives every protocol transition, as an Event built for it.
// Implementations must not call back into the RSM. A nil observer disables
// reporting and with it the building of events; an embedder that only needs
// to wake the requests an invocation unblocked takes RSM.SetWakeHook, which
// costs no Event.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// MultiObserver composes observers into one fan-out observer that delivers
// every event to each of them in argument order. Nil arguments are dropped,
// nested multi-observers are flattened, and degenerate compositions collapse:
// zero live observers yield nil (so the RSM's nil check stays the only cost
// of disabled observation) and a single live observer is returned unchanged.
func MultiObserver(observers ...Observer) Observer {
	var list multiObserver
	for _, o := range observers {
		switch v := o.(type) {
		case nil:
			// dropped
		case multiObserver:
			list = append(list, v...)
		default:
			list = append(list, o)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	return list
}

type multiObserver []Observer

func (mo multiObserver) Observe(e Event) {
	for _, o := range mo {
		o.Observe(e)
	}
}
