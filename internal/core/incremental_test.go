package core

import (
	"errors"
	"testing"
)

// Uncontended incremental request: satisfied immediately with the whole
// potential set held (Rules R1/W1 apply unchanged).
func TestIncrementalUncontendedImmediate(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	id, err := m.IssueIncremental(1, nil, []ResourceID{la, lc}, nil, []ResourceID{la}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateSatisfied)
	ok, err := m.Granted(id, []ResourceID{la, lc})
	if err != nil || !ok {
		t.Fatalf("Granted = %v, %v; want full set held", ok, err)
	}
	ri, _ := m.Info(id)
	if ri.AcquisitionDelay() != 0 {
		t.Errorf("delay = %d, want 0", ri.AcquisitionDelay())
	}
	mustComplete(t, m, 2, id)
}

// Contended incremental write: entitled first, then granted subsets as
// conflicting holders drain, in ask order; satisfied when the full needed
// set is held.
func TestIncrementalGrantsAsHoldersDrain(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})

	rA := mustIssue(t, m, 1, []ResourceID{la}, nil) // reader holds ℓa
	rC := mustIssue(t, m, 2, []ResourceID{lc}, nil) // reader holds ℓc

	// Incremental write over potential {ℓa, ℓc}; initially asks for ℓc.
	id, err := m.IssueIncremental(3, nil, []ResourceID{la, lc}, nil, []ResourceID{lc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateEntitled) // blocked only by readers

	// ℓc still read locked: no grant yet.
	if ok, _ := m.Granted(id, []ResourceID{lc}); ok {
		t.Fatal("granted ℓc while read locked")
	}
	mustComplete(t, m, 4, rC)
	if ok, _ := m.Granted(id, []ResourceID{lc}); !ok {
		t.Fatal("ℓc not granted after reader completed")
	}
	wantState(t, m, id, StateEntitled) // still incomplete: ℓa outstanding? no — not asked yet

	// Ask for ℓa: still read locked → not granted synchronously.
	ok, err := m.Acquire(5, id, []ResourceID{la})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ℓa granted while read locked")
	}
	mustComplete(t, m, 6, rA)
	if ok, _ := m.Granted(id, []ResourceID{la}); !ok {
		t.Fatal("ℓa not granted after reader completed")
	}
	// Full needed set held → satisfied.
	wantState(t, m, id, StateSatisfied)

	ri, _ := m.Info(id)
	// Cumulative acquisition delay: ℓc ask waited [3,4); ℓa ask waited
	// [5,6); total 2.
	if got := ri.AcquisitionDelay(); got != 2 {
		t.Errorf("cumulative incremental delay = %d, want 2", got)
	}
	mustComplete(t, m, 7, id)
}

// An incremental request may complete early without acquiring the rest of
// its potential set.
func TestIncrementalEarlyComplete(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	rA := mustIssue(t, m, 1, []ResourceID{la}, nil)

	id, err := m.IssueIncremental(2, nil, []ResourceID{la, lc}, nil, []ResourceID{lc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateEntitled)
	if ok, _ := m.Granted(id, []ResourceID{lc}); !ok {
		t.Fatal("ℓc (free) not granted to the entitled request")
	}
	// Complete while entitled, having only ever held ℓc.
	mustComplete(t, m, 3, id)

	// The queues must be clean: a later write of ℓc sails through.
	w := mustIssue(t, m, 4, nil, []ResourceID{lc})
	wantState(t, m, w, StateSatisfied)
	mustComplete(t, m, 5, w)
	mustComplete(t, m, 6, rA)
}

// While an incremental request is entitled with partial grants, conflicting
// requests cannot be satisfied (Cors. 1–2: entitlement protects the whole
// potential set).
func TestIncrementalEntitlementProtectsPotentialSet(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	rA := mustIssue(t, m, 1, []ResourceID{la}, nil)

	id, err := m.IssueIncremental(2, nil, []ResourceID{la, lc}, nil, []ResourceID{lc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateEntitled)

	// A later write of ℓc conflicts with the entitled incremental request:
	// it must wait even though it "only" sees a partially granted holder.
	w := mustIssue(t, m, 3, nil, []ResourceID{lc})
	wantState(t, m, w, StateWaiting)

	// A later read of ℓc also waits, and is not entitled either: the head
	// of WQ(ℓc) is the entitled incremental request itself (Def. 3).
	r := mustIssue(t, m, 4, []ResourceID{lc}, nil)
	wantState(t, m, r, StateWaiting)

	mustComplete(t, m, 5, rA)
	wantState(t, m, id, StateEntitled) // ℓa not asked: still entitled, holding ℓc
	mustComplete(t, m, 6, id)
	// With the incremental request gone, w reaches the head of WQ(ℓc),
	// becomes entitled with an empty blocking set, and is satisfied; the
	// read then waits out the write phase (phase-fair alternation).
	wantState(t, m, w, StateSatisfied)
	wantState(t, m, r, StateEntitled)
	mustComplete(t, m, 7, w)
	wantState(t, m, r, StateSatisfied)
	mustComplete(t, m, 8, r)
}

// Incremental reads: grants require only the absence of write locks.
func TestIncrementalRead(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	w := mustIssue(t, m, 1, nil, []ResourceID{la}) // write-locks ℓa (+ℓb extra)

	id, err := m.IssueIncremental(2, []ResourceID{la, lc}, nil, []ResourceID{lc}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateEntitled) // blocked by satisfied write on ℓa
	if ok, _ := m.Granted(id, []ResourceID{lc}); !ok {
		t.Fatal("free resource ℓc not granted to entitled read")
	}
	// Another reader shares ℓc concurrently with the partial grant.
	r2 := mustIssue(t, m, 3, []ResourceID{lc}, nil)
	wantState(t, m, r2, StateSatisfied)

	ok, err := m.Acquire(4, id, []ResourceID{la})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ℓa granted while write locked")
	}
	mustComplete(t, m, 5, w)
	wantState(t, m, id, StateSatisfied)
	mustComplete(t, m, 6, id)
	mustComplete(t, m, 7, r2)
}

func TestIncrementalErrors(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})

	// Initial ask outside the potential set.
	if _, err := m.IssueIncremental(1, nil, []ResourceID{la}, nil, []ResourceID{lc}, nil); err == nil {
		t.Error("out-of-set initial ask accepted")
	}

	id, err := m.IssueIncremental(2, nil, []ResourceID{la, lc}, nil, []ResourceID{la}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ask outside the potential set.
	if _, err := m.Acquire(3, id, []ResourceID{lb}); err == nil {
		t.Error("out-of-set ask accepted")
	}
	// Acquire on a non-incremental request.
	plain := mustIssue(t, m, 4, []ResourceID{lb}, nil)
	if _, err := m.Acquire(5, plain, []ResourceID{lb}); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("non-incremental acquire: err = %v", err)
	}
	// Acquire of already-held resources returns true immediately.
	ok, err := m.Acquire(6, id, []ResourceID{la, lc})
	if err != nil || !ok {
		t.Fatalf("already-held acquire = %v, %v", ok, err)
	}
	// Unknown request.
	if _, err := m.Acquire(7, 999, []ResourceID{la}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("unknown acquire: err = %v", err)
	}
	// Granted on unknown request.
	if _, err := m.Granted(999, []ResourceID{la}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("unknown granted: err = %v", err)
	}
}

// Acquire with an in-flight partial want merges asks.
func TestIncrementalMergedAsks(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	blocker := mustIssue(t, m, 1, nil, []ResourceID{la, lb, lc})

	id, err := m.IssueIncremental(2, nil, []ResourceID{la, lc}, nil, []ResourceID{la}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, m, id, StateWaiting) // blocked by the write holder; not yet entitled
	if ok, _ := m.Acquire(3, id, []ResourceID{lc}); ok {
		t.Fatal("grant while blocked")
	}
	mustComplete(t, m, 4, blocker)
	// Both merged asks granted at once; full set held → satisfied.
	wantState(t, m, id, StateSatisfied)
	ri, _ := m.Info(id)
	// The oldest outstanding ask started at t=2; granted at t=4.
	if got := ri.AcquisitionDelay(); got != 2 {
		t.Errorf("delay = %d, want 2", got)
	}
	mustComplete(t, m, 5, id)
}

// TestIncrementalRejectedAskLeavesNoTrace: an initial ask outside the
// potential set is rejected before anything is minted — the statistics, the
// conservation identity Issued == Completed + Canceled, the next request ID
// and the state key are exactly what they were.
func TestIncrementalRejectedAskLeavesNoTrace(t *testing.T) {
	m := NewRSM(fig2Spec(t), Options{})
	first := mustIssue(t, m, 1, nil, []ResourceID{lb})
	stats, key := m.Stats(), m.StateKey(nil)

	if _, err := m.IssueIncremental(2, nil, []ResourceID{la}, nil, []ResourceID{lc}, nil); err == nil {
		t.Fatal("out-of-set initial ask accepted")
	}
	if got := m.Stats(); got != stats {
		t.Errorf("rejected ask changed the stats: %+v, was %+v", got, stats)
	}
	if got := m.StateKey(nil); got != key {
		t.Errorf("rejected ask changed the state key:\n%s\nwas\n%s", got, key)
	}
	next := mustIssue(t, m, 3, nil, []ResourceID{la})
	if next != first+1 {
		t.Errorf("request after the rejected ask got ID %d, want %d", next, first+1)
	}
	mustComplete(t, m, 4, first)
	mustComplete(t, m, 5, next)
	if st := m.Stats(); st.Issued != st.Completed+st.Canceled {
		t.Errorf("issued %d != completed %d + canceled %d", st.Issued, st.Completed, st.Canceled)
	}
}
