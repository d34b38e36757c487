package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Request records are recycled through the RSM's free list, so everything
// that left the RSM earlier — an Info or History snapshot, a retained Event —
// must be a value of its own, and an ID whose record now serves another
// request must stay unknown. The episodes below retire and reissue records
// well over ten thousand times through every request form, on a narrow
// system (sets inline: snapshots are plain values) and on one whose
// resources lie beyond the inline words (a snapshot that skipped its Clone
// would share a spill slice with the live record and change under us).

// kept is a value taken out of the RSM together with its rendering at the
// time: the rendering of the value must never change afterwards.
type kept struct {
	v    any
	then string
}

func render(v any) string {
	if e, ok := v.(Event); ok { // Event's own String leaves most of it out
		return fmt.Sprintf("%v pair=%d read=%v write=%v blockers=%v tag=%v", e, e.Pair, e.Read, e.Write, e.Blockers, e.Tag)
	}
	return fmt.Sprintf("%+v", v)
}

func keep(v any) kept { return kept{v, render(v)} }

func (k kept) check(t *testing.T, what string) {
	t.Helper()
	if now := render(k.v); now != k.then {
		t.Fatalf("%s changed after it was handed out:\n was %s\n now %s", what, k.then, now)
	}
}

func TestRecycledRecordsLeaveSnapshotsAlone(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		universe []ResourceID
		opt      Options
	}{
		{"inline/history", []ResourceID{0, 1, 2, 3}, Options{RecordHistory: true}},
		{"inline/placeholders", []ResourceID{0, 1, 2, 3}, Options{Placeholders: true}},
		{"spilled/history", []ResourceID{130, 131, 200, 299}, Options{RecordHistory: true, Placeholders: true}},
		{"spilled", []ResourceID{130, 131, 200, 299}, Options{}},
	} {
		t.Run(cfg.name, func(t *testing.T) { recycleEpisode(t, cfg.universe, cfg.opt) })
	}
}

func recycleEpisode(t *testing.T, universe []ResourceID, opt Options) {
	rng := rand.New(rand.NewSource(int64(len(universe)) + int64(universe[0])))
	b := NewSpecBuilder(int(universe[len(universe)-1]) + 1)
	if err := b.DeclareRequest(universe, nil); err != nil { // one read-shared component
		t.Fatal(err)
	}
	m := NewRSM(b.Build(), opt)

	var snaps, events []kept // Info snapshots of live and retired requests; a sample of the events
	m.SetObserver(ObserverFunc(func(e Event) {
		if rng.Intn(8) == 0 {
			events = append(events, keep(e))
		}
	}))

	const maxLive = 6
	var live []*liveReq
	var retired []ReqID
	now := Time(0)
	subset := func() []ResourceID {
		ids := subsample(rng, universe)
		if len(ids) == 0 {
			ids = universe[:1]
		}
		return ids
	}
	retire := func(i int) {
		p := live[i]
		live = append(live[:i], live[i+1:]...)
		retired = append(retired, p.id)
		if p.upgrade != nil {
			retired = append(retired, p.upgrade.ReadID)
		}
		if opt.RecordHistory { // the history's own record of it, to compare at the end
			ri, err := m.Info(p.id)
			if err != nil {
				t.Fatalf("Info(%d) of a retired request with RecordHistory on: %v", p.id, err)
			}
			snaps = append(snaps, keep(ri))
		}
	}

	steps := 50000
	if testing.Short() {
		steps = 5000
	}
	for step := 0; step < steps; step++ {
		now++
		ctx := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 3 && len(live) < maxLive:
			ids := subset()
			read, write := ids, []ResourceID(nil)
			if rng.Intn(2) == 0 {
				read, write = nil, ids
			}
			id, err := m.Issue(now, read, write, step)
			if err != nil {
				t.Fatalf("%s: Issue: %v", ctx, err)
			}
			live = append(live, &liveReq{id: id})
		case op == 3 && len(live) < maxLive:
			h, err := m.IssueUpgradeable(now, subset(), step)
			if err != nil {
				t.Fatalf("%s: IssueUpgradeable: %v", ctx, err)
			}
			live = append(live, &liveReq{id: h.WriteID, upgrade: &h})
		case op == 4 && len(live) < maxLive:
			full := subset()
			id, err := m.IssueIncremental(now, nil, full, nil, full[:1], step)
			if err != nil {
				t.Fatalf("%s: IssueIncremental: %v", ctx, err)
			}
			live = append(live, &liveReq{id: id, incr: true})
		case op == 5 && len(live) > 0: // withdraw, where the form allows it
			i := rng.Intn(len(live))
			p := live[i]
			var err error
			switch {
			case p.upgrade != nil:
				err = m.CancelUpgradeable(now, *p.upgrade)
			default:
				err = m.CancelRequest(now, p.id)
			}
			if err == nil {
				retire(i)
			} else if !errors.Is(err, ErrBadState) {
				t.Fatalf("%s: cancel: %v", ctx, err)
			}
		case len(live) > 0:
			i := rng.Intn(len(live))
			done, err := progressRequest(m, now, live[i], rng)
			if err != nil {
				t.Fatalf("%s: progress: %v", ctx, err)
			}
			if done {
				retire(i)
			}
		}
		if v := m.CheckInvariants(); len(v) != 0 {
			t.Fatalf("%s: %s\n%s", ctx, v[0], dumpState(m))
		}

		// A snapshot of a live request, to outlive its record.
		if len(live) > 0 && step%16 == 0 {
			ri, err := m.Info(live[rng.Intn(len(live))].id)
			if err != nil {
				t.Fatalf("%s: Info of a live request: %v", ctx, err)
			}
			snaps = append(snaps, keep(ri))
		}

		// A retired ID stays unknown, whoever holds its record now: mostly a
		// recent one, whose record is the likeliest to be back in service
		// (and which a history lookup finds without a long scan).
		if len(retired) > 0 && step%4 == 0 {
			id := retired[len(retired)-1-rng.Intn(min(len(retired), 32))]
			if step%100 == 0 {
				id = retired[rng.Intn(len(retired))]
			}
			now++
			for _, err := range []error{m.Complete(now, id), m.CancelRequest(now, id), m.CancelAsk(now, id)} {
				if !errors.Is(err, ErrUnknownRequest) {
					t.Fatalf("%s: invocation on retired request %d = %v, want ErrUnknownRequest", ctx, id, err)
				}
			}
			if _, err := m.Granted(id, universe[:1]); !errors.Is(err, ErrUnknownRequest) {
				t.Fatalf("%s: Granted(%d) of a retired request = %v", ctx, id, err)
			}
			if m.CanComplete(id) || m.CanCancel(id) {
				t.Fatalf("%s: retired request %d reported completable or cancelable", ctx, id)
			}
			st, err := m.State(id)
			if opt.RecordHistory {
				if err != nil || (st != StateComplete && st != StateCanceled) {
					t.Fatalf("%s: State(%d) of a retired request = %s, %v", ctx, id, st, err)
				}
			} else if !errors.Is(err, ErrUnknownRequest) {
				t.Fatalf("%s: State(%d) of a retired request = %s, %v, want ErrUnknownRequest", ctx, id, st, err)
			}
		}

		// The free list holds each retired record once, and none that is live.
		if step%8 != 0 {
			continue
		}
		seen := map[*request]bool{}
		for _, r := range m.incomplete {
			seen[r] = true
		}
		for _, r := range m.free {
			if seen[r] {
				t.Fatalf("%s: record %p is on the free list twice, or while incomplete", ctx, r)
			}
			seen[r] = true
		}
		if len(seen) > 2*maxLive+1 {
			t.Fatalf("%s: %d records for at most %d live requests: the free list is not being reused", ctx, len(seen), 2*maxLive)
		}
	}

	if (len(retired) < 10000 && !testing.Short()) || len(events) == 0 {
		t.Fatalf("only %d records retired and %d events kept, want ≥ 10000 and some", len(retired), len(events))
	}
	for _, k := range snaps {
		k.check(t, "Info snapshot")
	}
	for _, k := range events {
		k.check(t, "Event")
	}
	if opt.RecordHistory {
		h1 := keep(m.History())
		now++
		if _, err := m.Issue(now, nil, universe, nil); err != nil { // one more reuse
			t.Fatal(err)
		}
		h1.check(t, "History")
	}
}
