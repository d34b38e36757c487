package core

import (
	"strings"
	"testing"
)

// StateKey must be invariant under absolute time shifts (only timestamp
// ORDER is behavior, Rule G1), and interleaving diamonds whose intermediate
// requests have drained must converge to the same key — that convergence is
// what the model checker's memoization exploits.
func TestStateKeyCanonical(t *testing.T) {
	spec := NewSpecBuilder(4).Build()
	alias := func(ids map[ReqID]int32) func(ReqID) int32 {
		return func(id ReqID) int32 { return ids[id] }
	}

	// Absolute time must not leak into the key.
	m1 := NewRSM(spec, Options{})
	a1, _ := m1.Issue(1, nil, []ResourceID{0}, nil)
	b1, _ := m1.Issue(2, nil, []ResourceID{2}, nil)
	k1 := m1.StateKey(alias(map[ReqID]int32{a1: 10, b1: 20}))

	m2 := NewRSM(spec, Options{})
	a2, _ := m2.Issue(100, nil, []ResourceID{0}, nil)
	b2, _ := m2.Issue(2000, nil, []ResourceID{2}, nil)
	k2 := m2.StateKey(alias(map[ReqID]int32{a2: 10, b2: 20}))
	if k1 != k2 {
		t.Fatalf("keys differ under time shift:\n%s\n%s", k1, k2)
	}

	// Diamond convergence: the two interleavings of {issue A, issue B} then
	// complete A land in the same canonical state.
	m3 := NewRSM(spec, Options{})
	a3, _ := m3.Issue(1, nil, []ResourceID{0}, nil)
	b3, _ := m3.Issue(2, nil, []ResourceID{2}, nil)
	if err := m3.Complete(3, a3); err != nil {
		t.Fatal(err)
	}
	k3 := m3.StateKey(alias(map[ReqID]int32{a3: 10, b3: 20}))

	m4 := NewRSM(spec, Options{})
	b4, _ := m4.Issue(1, nil, []ResourceID{2}, nil)
	a4, _ := m4.Issue(2, nil, []ResourceID{0}, nil)
	if err := m4.Complete(3, a4); err != nil {
		t.Fatal(err)
	}
	k4 := m4.StateKey(alias(map[ReqID]int32{a4: 10, b4: 20}))
	if k3 != k4 {
		t.Fatalf("diamond did not converge:\n%s\n%s", k3, k4)
	}

	// Requests still incomplete in different timestamp order must NOT
	// compare equal: stabilization iterates in timestamp order, which can
	// decide entitlement races, so the relative order is behavior.
	kPre1 := m1.StateKey(alias(map[ReqID]int32{a1: 10, b1: 20}))
	m5 := NewRSM(spec, Options{})
	b5, _ := m5.Issue(1, nil, []ResourceID{2}, nil)
	a5, _ := m5.Issue(2, nil, []ResourceID{0}, nil)
	kPre2 := m5.StateKey(alias(map[ReqID]int32{a5: 10, b5: 20}))
	if kPre1 == kPre2 {
		t.Fatalf("keys equal despite different incomplete order:\n%s", kPre1)
	}
}

// StateKey must distinguish states that differ in write-queue order —
// timestamp order is behavior (Rule W1).
func TestStateKeyWQOrderMatters(t *testing.T) {
	spec := NewSpecBuilder(2).Build()
	alias := func(ids map[ReqID]int32) func(ReqID) int32 {
		return func(id ReqID) int32 { return ids[id] }
	}

	// Holder on 0 keeps both later writes queued; their queue order differs.
	m1 := NewRSM(spec, Options{})
	h1, _ := m1.Issue(1, nil, []ResourceID{0, 1}, nil)
	x1, _ := m1.Issue(2, nil, []ResourceID{0}, nil)
	y1, _ := m1.Issue(3, nil, []ResourceID{0}, nil)
	k1 := m1.StateKey(alias(map[ReqID]int32{h1: 1, x1: 2, y1: 3}))

	m2 := NewRSM(spec, Options{})
	h2, _ := m2.Issue(1, nil, []ResourceID{0, 1}, nil)
	y2, _ := m2.Issue(2, nil, []ResourceID{0}, nil)
	x2, _ := m2.Issue(3, nil, []ResourceID{0}, nil)
	k2 := m2.StateKey(alias(map[ReqID]int32{h2: 1, x2: 2, y2: 3}))

	if k1 == k2 {
		t.Fatalf("keys equal despite different WQ order:\n%s", k1)
	}
}

func TestCanCompleteCanCancel(t *testing.T) {
	spec := NewSpecBuilder(2).Build()
	m := NewRSM(spec, Options{})
	w, _ := m.Issue(1, nil, []ResourceID{0}, nil)
	if !m.CanComplete(w) {
		t.Errorf("satisfied write: CanComplete = false")
	}
	if m.CanCancel(w) {
		t.Errorf("satisfied write: CanCancel = true")
	}
	r, _ := m.Issue(2, []ResourceID{0}, nil, nil)
	if m.CanComplete(r) {
		t.Errorf("waiting read: CanComplete = true")
	}
	if !m.CanCancel(r) {
		t.Errorf("waiting read: CanCancel = false")
	}
	if m.CanComplete(999) || m.CanCancel(999) {
		t.Errorf("unknown request reported completable/cancelable")
	}
	// Upgradeable halves are never CancelRequest-able.
	h, err := m.IssueUpgradeable(3, []ResourceID{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CanCancel(h.WriteID) {
		t.Errorf("upgrade write half: CanCancel = true")
	}
}

// ChaosSkipWQHeadCheck must reintroduce the overtaking bug: a later write
// with a disjoint needed set but a shared queue predecessor gets satisfied
// past the earlier write.
func TestChaosSkipWQHeadCheckOvertakes(t *testing.T) {
	spec := NewSpecBuilder(2).Build()

	run := func(chaos bool) State {
		m := NewRSM(spec, Options{ChaosSkipWQHeadCheck: chaos})
		mustIssue(t, m, 1, nil, []ResourceID{0})       // holder of 0
		mustIssue(t, m, 2, nil, []ResourceID{0, 1})    // waits behind holder
		w3 := mustIssue(t, m, 3, nil, []ResourceID{1}) // behind the waiter in WQ(1)
		st, err := m.State(w3)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(false); st != StateWaiting {
		t.Fatalf("sound mode: overtaking write state = %s, want waiting", st)
	}
	if st := run(true); st != StateSatisfied {
		t.Fatalf("chaos mode: overtaking write state = %s, want satisfied", st)
	}
}

// The invariant report must never silently truncate: beyond the cap it has
// to say how many more violations exist.
func TestCheckInvariantsTruncationReported(t *testing.T) {
	q := maxInvariantReports + 5
	m := NewRSM(NewSpecBuilder(q).Build(), Options{})
	// Manufacture q out-of-order write queues directly: two bare requests
	// with decreasing IDs in every WQ trips I4 once per resource.
	r1 := &request{id: 2, kind: KindWrite}
	r2 := &request{id: 1, kind: KindWrite}
	for a := 0; a < q; a++ {
		m.res[a].wq = []wqEntry{{r: r1}, {r: r2}}
	}
	v := m.CheckInvariants()
	if len(v) != maxInvariantReports+1 {
		t.Fatalf("got %d reports, want %d capped + 1 summary", len(v), maxInvariantReports)
	}
	last := v[len(v)-1]
	if !strings.Contains(last, "and 5 more") {
		t.Fatalf("summary line = %q, want '… and 5 more'", last)
	}
}
