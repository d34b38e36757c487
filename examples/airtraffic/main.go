// Air-traffic sectors: incremental locking (Sec. 3.7) and upgrades
// (Sec. 3.6) on a shared track table.
//
// The airspace is divided into sectors, each a resource guarding its set of
// tracks. Conflict-resolution tasks walk a flight path sector by sector:
// they declare the full path up front (the a-priori set the protocol needs,
// just like the PCP) and lock sectors INCREMENTALLY as the aircraft
// progresses, holding earlier sectors while acquiring later ones — the
// entitlement mechanism guarantees the total blocking across all increments
// stays within a single request's bound, with no deadlock possible.
// Monitoring tasks use UPGRADEABLE requests: they scan a sector read-only
// and escalate to a write only when they find a deviation to correct.
//
//	go run ./examples/airtraffic
package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rtsync/rwrnlp"
)

const nSectors = 6

type sector struct {
	tracks   int64
	occupant int32 // writer-presence check
}

func main() {
	spec := rwrnlp.NewSpecBuilder(nSectors)
	// Flight paths: any window of three consecutive sectors may be locked
	// by one incremental request; monitors read pairs.
	for s := 0; s < nSectors; s++ {
		path := []rwrnlp.ResourceID{
			rwrnlp.ResourceID(s),
			rwrnlp.ResourceID((s + 1) % nSectors),
			rwrnlp.ResourceID((s + 2) % nSectors),
		}
		if err := spec.DeclareRequest(nil, path); err != nil {
			panic(err)
		}
		if err := spec.DeclareRequest(path[:2], nil); err != nil {
			panic(err)
		}
	}
	p := rwrnlp.New(spec.Build(), rwrnlp.WithPlaceholders())

	sectors := make([]sector, nSectors)
	var overlaps, deviationsFixed atomic.Int64
	var wg sync.WaitGroup

	// Conflict-resolution tasks: incremental path locking.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				s0 := (g*3 + i) % nSectors
				path := []rwrnlp.ResourceID{
					rwrnlp.ResourceID(s0),
					rwrnlp.ResourceID((s0 + 1) % nSectors),
					rwrnlp.ResourceID((s0 + 2) % nSectors),
				}
				// Declare the whole path; take the first sector now.
				inc, err := p.AcquireIncremental(context.Background(), nil, path, nil, path[:1])
				if err != nil {
					panic(err)
				}
				for hop := 0; hop < len(path); hop++ {
					if hop > 0 {
						if err := inc.Acquire(context.Background(), path[hop]); err != nil {
							panic(err)
						}
					}
					// Work inside the sector: exclusive access check.
					sec := &sectors[path[hop]]
					if atomic.AddInt32(&sec.occupant, 1) != 1 {
						overlaps.Add(1)
					}
					sec.tracks++
					atomic.AddInt32(&sec.occupant, -1)
				}
				if err := inc.Release(); err != nil {
					panic(err)
				}
			}
		}()
	}

	// Monitors: upgradeable sector scans.
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				s0 := rwrnlp.ResourceID((g + i) % nSectors)
				u, err := p.AcquireUpgradeable(context.Background(), s0)
				if err != nil {
					panic(err)
				}
				fix := false
				if u.Reading() {
					// Optimistic read: deviation iff track count not a
					// multiple of 3 (an arbitrary rule for the demo).
					fix = sectors[s0].tracks%3 != 0
					if !fix {
						if err := u.ReleaseRead(); err != nil {
							panic(err)
						}
						continue
					}
					if err := u.Upgrade(context.Background()); err != nil {
						panic(err)
					}
				}
				// Write phase: re-check (state may have changed) and fix.
				sec := &sectors[s0]
				if atomic.AddInt32(&sec.occupant, 1) != 1 {
					overlaps.Add(1)
				}
				if sec.tracks%3 != 0 {
					sec.tracks += 3 - sec.tracks%3
					deviationsFixed.Add(1)
				}
				atomic.AddInt32(&sec.occupant, -1)
				if err := u.Release(); err != nil {
					panic(err)
				}
			}
		}()
	}

	wg.Wait()
	st := p.Stats()
	var total int64
	for i := range sectors {
		total += sectors[i].tracks
	}
	fmt.Printf("sector write overlaps: %d (must be 0)\n", overlaps.Load())
	fmt.Printf("deviations fixed via upgrade: %d; total tracks: %d\n", deviationsFixed.Load(), total)
	fmt.Printf("protocol: %d requests, %d upgrades taken, %d skipped, %d canceled\n",
		st.Issued, st.UpgradesTaken, st.UpgradesSkipped, st.Canceled)
	if overlaps.Load() != 0 {
		panic("mutual exclusion violated")
	}
	fmt.Println("OK")
}
