// Quickstart: the smallest useful R/W RNLP program.
//
// Three resources guard three shared counters. Writers update pairs of
// counters atomically (multi-resource write requests — no deadlock possible,
// no lock-ordering discipline needed); readers take consistent snapshots of
// all three (multi-resource read requests, running concurrently with each
// other); one goroutine issues mixed requests (Sec. 3.5), reading two
// counters while writing the third.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/rtsync/rwrnlp"
)

const (
	rX rwrnlp.ResourceID = iota // counter X
	rY                          // counter Y
	rZ                          // counter Z
)

func main() {
	// Declare the potential request shapes: snapshots read {X, Y, Z}, and
	// the mixed aggregator reads {X, Y} while writing Z.
	spec := rwrnlp.NewSpecBuilder(3)
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{rX, rY, rZ}, nil); err != nil {
		panic(err)
	}
	if err := spec.DeclareRequest([]rwrnlp.ResourceID{rX, rY}, []rwrnlp.ResourceID{rZ}); err != nil {
		panic(err)
	}
	p := rwrnlp.New(spec.Build(), rwrnlp.WithPlaceholders())

	var x, y, z int
	var wg sync.WaitGroup

	// Writers: atomically move a unit from X to Y (and vice versa).
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tok, err := p.Write(context.Background(), rX, rY)
				if err != nil {
					panic(err)
				}
				if w == 0 {
					x--
					y++
				} else {
					x++
					y--
				}
				if err := p.Release(tok); err != nil {
					panic(err)
				}
			}
		}()
	}

	// Mixed aggregator: z = x + y, reading X and Y (sharing with snapshot
	// readers) while writing Z.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			tok, err := p.Acquire(context.Background(), []rwrnlp.ResourceID{rX, rY}, []rwrnlp.ResourceID{rZ})
			if err != nil {
				panic(err)
			}
			z = x + y
			if err := p.Release(tok); err != nil {
				panic(err)
			}
		}
	}()

	// Snapshot readers: X+Y must always be 0 (transfers preserve the sum).
	inconsistencies := 0
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tok, err := p.Read(context.Background(), rX, rY, rZ)
				if err != nil {
					panic(err)
				}
				if x+y != 0 {
					inconsistencies++ // safe: we hold read locks, writers are out
				}
				if err := p.Release(tok); err != nil {
					panic(err)
				}
			}
		}()
	}

	wg.Wait()
	st := p.Stats()
	fmt.Printf("final state: x=%d y=%d z=%d (x+y must be 0)\n", x, y, z)
	fmt.Printf("snapshot inconsistencies: %d (must be 0)\n", inconsistencies)
	fmt.Printf("protocol: %d requests, %d satisfied immediately, %d entitlements\n",
		st.Issued, st.ImmediateSats, st.Entitlements)
	if x+y != 0 || inconsistencies > 0 {
		panic("consistency violated")
	}
	fmt.Println("OK")
}
