package core

import (
	"errors"
	"testing"
)

// Component partitioning: connected components of declared footprints, dense
// numbering by smallest resource ID, undeclared resources as singletons.
func TestSpecComponents(t *testing.T) {
	b := NewSpecBuilder(7)
	if err := b.DeclareRequest([]ResourceID{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRequest(nil, []ResourceID{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareRequest([]ResourceID{1}, []ResourceID{2}); err != nil {
		t.Fatal(err)
	}
	s := b.Build()
	// Components: {0,1,2} (chained via resource 1), {3,4}, {5}, {6}.
	if got := s.NumComponents(); got != 4 {
		t.Fatalf("NumComponents = %d, want 4", got)
	}
	wantComp := []int{0, 0, 0, 1, 1, 2, 3}
	for a, want := range wantComp {
		if got := s.Component(ResourceID(a)); got != want {
			t.Errorf("Component(%d) = %d, want %d", a, got, want)
		}
	}
	wantRes := [][]ResourceID{{0, 1, 2}, {3, 4}, {5}, {6}}
	for c, want := range wantRes {
		got := s.ComponentResources(c)
		if len(got) != len(want) {
			t.Fatalf("ComponentResources(%d) = %v, want %v", c, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ComponentResources(%d) = %v, want %v", c, got, want)
			}
		}
	}
}

// The read-sharing closure can never cross a component boundary: S(ℓ) only
// grows within declared footprints.
func TestSpecReadSetsWithinComponent(t *testing.T) {
	b := NewSpecBuilder(6)
	if err := b.DeclareReadGroup(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareReadGroup(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareReadGroup(4, 5); err != nil {
		t.Fatal(err)
	}
	s := b.Build()
	for a := 0; a < s.NumResources(); a++ {
		c := s.Component(ResourceID(a))
		s.ReadSet(ResourceID(a)).ForEach(func(bID ResourceID) bool {
			if s.Component(bID) != c {
				t.Errorf("S(%d) contains %d from component %d (resource in component %d)", a, bID, s.Component(bID), c)
			}
			return true
		})
	}
}

func TestSpecNoDeclarationsAllSingletons(t *testing.T) {
	s := NewSpecBuilder(4).Build()
	if got := s.NumComponents(); got != 4 {
		t.Fatalf("NumComponents = %d, want 4", got)
	}
	for a := 0; a < 4; a++ {
		if got := s.Component(ResourceID(a)); got != a {
			t.Errorf("Component(%d) = %d, want %d", a, got, a)
		}
	}
}

// One write-only declaration over every resource is how a system asks for a
// single total order (the runtime lock builds one shard per component, and
// locks/mutexrnlp relies on this): it joins the resources into one component
// and contributes no read sharing, so no write expands.
func TestSpecWriteOnlyDeclarationOneComponentNoSharing(t *testing.T) {
	const q = 5
	b := NewSpecBuilder(q)
	all := make([]ResourceID, q)
	for i := range all {
		all[i] = ResourceID(i)
	}
	if err := b.DeclareRequest(nil, all); err != nil {
		t.Fatal(err)
	}
	s := b.Build()
	if got := s.NumComponents(); got != 1 {
		t.Fatalf("NumComponents = %d, want 1", got)
	}
	for _, a := range all {
		if got := s.Component(a); got != 0 {
			t.Errorf("Component(%d) = %d, want 0", a, got)
		}
		if got := s.ReadSet(a); !got.Equal(NewResourceSet(a)) {
			t.Errorf("S(%d) = %v, want {%d}", a, got, a)
		}
	}
	if got := s.Expand(NewResourceSet(0, 3)); !got.Equal(NewResourceSet(0, 3)) {
		t.Errorf("Expand({0,3}) = %v, want {0, 3}", got)
	}
}

func TestSpecUnknownResourceSentinel(t *testing.T) {
	b := NewSpecBuilder(2)
	if err := b.DeclareRequest([]ResourceID{0, 5}, nil); !errors.Is(err, ErrUnknownResource) {
		t.Fatalf("DeclareRequest out of range: err = %v, want ErrUnknownResource", err)
	}
	s := b.Build()
	if err := s.Validate(NewResourceSet(3)); !errors.Is(err, ErrUnknownResource) {
		t.Fatalf("Validate out of range: err = %v, want ErrUnknownResource", err)
	}
}

// FirstID/IDStep stride the ID space so several RSMs mint disjoint IDs.
func TestRSMIDStriding(t *testing.T) {
	spec := NewSpecBuilder(2).Build()
	seen := map[ReqID]int{}
	for i := 0; i < 3; i++ {
		m := NewRSM(spec, Options{FirstID: ReqID(i), IDStep: 3})
		var tm Time
		for k := 0; k < 4; k++ {
			tm++
			id, err := m.Issue(tm, []ResourceID{0}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if id == 0 {
				t.Fatalf("shard %d minted reserved ID 0", i)
			}
			if int(id)%3 != i {
				t.Errorf("shard %d minted ID %d (mod 3 = %d)", i, id, int(id)%3)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("ID %d minted by shards %d and %d", id, prev, i)
			}
			seen[id] = i
			if err := m.Complete(tm, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("minted %d distinct IDs, want 12", len(seen))
	}
}

func TestCancelAsk(t *testing.T) {
	b := NewSpecBuilder(2)
	if err := b.DeclareRequest(nil, []ResourceID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareReadGroup(1); err != nil {
		t.Fatal(err)
	}
	spec := b.Build()
	m := NewRSM(spec, Options{})

	// A reader holds resource 1: the incremental request becomes entitled
	// (only in-flight readers ahead of it) but its ask for 1 stays blocked.
	blocker, err := m.Issue(1, []ResourceID{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.IssueIncremental(2, nil, []ResourceID{0, 1}, nil, []ResourceID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Granted(id, []ResourceID{0}); err != nil || !ok {
		t.Fatalf("initial ask for free resource 0: granted=%v err=%v", ok, err)
	}
	if ok, err := m.Acquire(3, id, []ResourceID{1}); err != nil || ok {
		t.Fatalf("ask for held resource 1: granted=%v err=%v", ok, err)
	}
	if err := m.CancelAsk(4, id); err != nil {
		t.Fatal(err)
	}
	// The blocker finishing must NOT grant the canceled ask.
	if err := m.Complete(5, blocker); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Granted(id, []ResourceID{1}); ok {
		t.Fatal("canceled ask was granted anyway")
	}
	// The request itself stays usable: re-ask and complete.
	if ok, err := m.Acquire(6, id, []ResourceID{1}); err != nil || !ok {
		t.Fatalf("re-ask after cancel: granted=%v err=%v", ok, err)
	}
	if err := m.Complete(7, id); err != nil {
		t.Fatal(err)
	}
	if v := m.CheckInvariants(); v != nil {
		t.Fatalf("invariants violated: %v", v)
	}

	if err := m.CancelAsk(8, 999); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("CancelAsk unknown: err = %v", err)
	}
}

func TestCancelUpgradeable(t *testing.T) {
	spec := NewSpecBuilder(1).Build()
	m := NewRSM(spec, Options{})

	// Pending pair behind a writer: cancel both halves.
	w, err := m.Issue(1, nil, []ResourceID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.IssueUpgradeable(2, []ResourceID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph := m.UpgradePhase(h); ph != UpgradePending {
		t.Fatalf("phase = %v, want pending", ph)
	}
	if err := m.CancelUpgradeable(3, h); err != nil {
		t.Fatal(err)
	}
	if ph := m.UpgradePhase(h); ph != UpgradeDone {
		t.Fatalf("phase after cancel = %v, want done", ph)
	}
	if err := m.Complete(4, w); err != nil {
		t.Fatal(err)
	}

	// A reader holding before the pair issues keeps the write half blocked
	// across FinishRead below.
	r, err := m.Issue(5, []ResourceID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Satisfied read half: cancellation refused.
	h2, err := m.IssueUpgradeable(6, []ResourceID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph := m.UpgradePhase(h2); ph != UpgradeReading {
		t.Fatalf("phase = %v, want reading", ph)
	}
	if err := m.CancelUpgradeable(7, h2); !errors.Is(err, ErrBadState) {
		t.Fatalf("cancel with satisfied read half: err = %v, want ErrBadState", err)
	}

	// Pending upgrade (read half finished, write half blocked by reader r):
	// cancel just the write half.
	if err := m.FinishRead(8, h2, true); err != nil {
		t.Fatal(err)
	}
	if ph := m.UpgradePhase(h2); ph != UpgradePending {
		t.Fatalf("phase = %v, want pending (write half waiting)", ph)
	}
	if err := m.CancelUpgradeable(9, h2); err != nil {
		t.Fatal(err)
	}
	if ph := m.UpgradePhase(h2); ph != UpgradeDone {
		t.Fatalf("phase = %v, want done", ph)
	}
	if err := m.Complete(10, r); err != nil {
		t.Fatal(err)
	}
	if v := m.CheckInvariants(); v != nil {
		t.Fatalf("invariants violated: %v", v)
	}
	if got := m.Stats(); got.Canceled != 2 {
		t.Fatalf("Canceled = %d, want 2 (one per canceled pair): %+v", got.Canceled, got)
	}
	if left := m.Incomplete(); len(left) != 0 {
		t.Fatalf("incomplete requests remain: %v", left)
	}
}
