package core

import (
	"testing"

	"github.com/rtsync/rwrnlp/internal/allocguard"
)

// The allocation guards: a warmed-up RSM with no observer allocates nothing
// per invocation. What makes that so is spread over the package — inline
// ResourceSets, the derived sets cached on the request, the pass buffer, the
// free list, queues that keep their capacity — and any one of them regressing
// shows here as a non-zero count.

// guardSpec is four components of four read-shared resources, the shape the
// rnlpbench ladder prices.
func guardSpec(t testing.TB) *Spec {
	b := NewSpecBuilder(16)
	for c := 0; c < 4; c++ {
		ids := []ResourceID{ResourceID(4 * c), ResourceID(4*c + 1), ResourceID(4*c + 2), ResourceID(4*c + 3)}
		if err := b.DeclareRequest(ids, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestAllocsIdlePair(t *testing.T) {
	for _, ph := range []bool{true, false} {
		for _, write := range []bool{false, true} {
			m := NewRSM(guardSpec(t), Options{Placeholders: ph})
			ids := []ResourceID{1, 2}
			read, wr := ids, []ResourceID(nil)
			if write {
				read, wr = nil, ids
			}
			now := Time(0)
			allocguard.Require(t, "idle pair", func() {
				now++
				id, err := m.Issue(now, read, wr, nil)
				if err != nil {
					t.Fatal(err)
				}
				now++
				if err := m.Complete(now, id); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Eight incomplete requests — four writers holding a component's resources
// and four queued behind them — are what every stabilization pass of the
// measured pair has to scan and test for conflicts.
func TestAllocsPairBehindQueue(t *testing.T) {
	for _, ph := range []bool{true, false} {
		m := NewRSM(guardSpec(t), Options{Placeholders: ph})
		now := Time(0)
		for k := 0; k < 8; k++ {
			now++
			if _, err := m.Issue(now, nil, []ResourceID{ResourceID(12 + k%4)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		ids := []ResourceID{1, 2}
		allocguard.Require(t, "pair behind 8 queued", func() {
			now++
			id, err := m.Issue(now, nil, ids, nil)
			if err != nil {
				t.Fatal(err)
			}
			now++
			if err := m.Complete(now, id); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The contended steady state itself: every issuance queues behind a
// conflicting holder and every completion hands the resources over, so the
// entitle → satisfy path, placeholder removal and the wake hook all run.
func TestAllocsHandOff(t *testing.T) {
	for _, ph := range []bool{true, false} {
		m := NewRSM(guardSpec(t), Options{Placeholders: ph})
		woken := 0
		m.SetWakeHook(func(ReqID) { woken++ })
		now := Time(1)
		ids := []ResourceID{1, 2}
		holder, err := m.Issue(now, nil, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		allocguard.Require(t, "hand-off", func() {
			step++
			read, wr := []ResourceID(nil), ids
			if step%3 == 0 { // a reader every third time: both Rule R and Rule W hand-offs
				read, wr = ids, nil
			}
			now++
			next, err := m.Issue(now, read, wr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := m.State(next); st == StateSatisfied {
				t.Fatalf("request %d satisfied past holder %d", next, holder)
			}
			now++
			if err := m.Complete(now, holder); err != nil {
				t.Fatal(err)
			}
			if st, _ := m.State(next); st != StateSatisfied {
				t.Fatalf("request %d not satisfied by the hand-off: %s", next, st)
			}
			holder = next
		})
		if woken == 0 {
			t.Fatal("wake hook never called")
		}
	}
}
