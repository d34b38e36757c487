// Sensor fusion: the R/W mixing showcase (Sec. 3.5).
//
// A perception pipeline shares q sensor buffers and one fused world model:
//
//   - sensor drivers WRITE their own buffer (single-resource writes);
//   - the fusion stage READS several sensor buffers while WRITING the world
//     model — one atomic mixed request, so it never sees a torn sensor
//     frame and never publishes a torn model;
//   - planners READ the world model plus a sensor buffer (multi-resource
//     reads, all concurrent with each other AND with the fusion stage's
//     read-mode sensor locks — exactly the concurrency Sec. 3.5 adds).
//
// The example validates the executed event stream against the paper's
// properties with the trace checker and reports the concurrency achieved.
//
//	go run ./examples/sensorfusion
package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/trace"
)

const (
	nSensors = 4
	world    = rwrnlp.ResourceID(nSensors) // the fused world model
)

type frame struct {
	seq  int64
	a, b int64 // payload halves; a torn frame has a != b
}

func main() {
	spec := rwrnlp.NewSpecBuilder(nSensors + 1)
	// Fusion: reads all sensors, writes the world model.
	sensors := make([]rwrnlp.ResourceID, nSensors)
	for i := range sensors {
		sensors[i] = rwrnlp.ResourceID(i)
	}
	if err := spec.DeclareRequest(sensors, []rwrnlp.ResourceID{world}); err != nil {
		panic(err)
	}
	// Planner: reads the world model plus one sensor.
	for _, s := range sensors {
		if err := spec.DeclareRequest([]rwrnlp.ResourceID{s, world}, nil); err != nil {
			panic(err)
		}
	}
	// Both fast-path planes off: this example machine-checks the event stream,
	// and a request served by a fast path never emits events — full trace
	// fidelity matters more here than throughput.
	p := rwrnlp.New(spec.Build(), rwrnlp.WithPlaceholders(), rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}))
	rec := &trace.Recorder{}
	p.SetTracer(rec)

	buf := make([]frame, nSensors)
	var model frame
	var torn atomic.Int64
	var wg sync.WaitGroup

	// Sensor drivers.
	for s := 0; s < nSensors; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1500; i++ {
				tok, err := p.Write(context.Background(), sensors[s])
				if err != nil {
					panic(err)
				}
				buf[s] = frame{seq: i, a: i * 7, b: i * 7}
				if err := p.Release(tok); err != nil {
					panic(err)
				}
			}
		}()
	}

	// Fusion stage: mixed request (read sensors, write world).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= 2000; i++ {
			tok, err := p.Acquire(context.Background(), sensors, []rwrnlp.ResourceID{world})
			if err != nil {
				panic(err)
			}
			var sumA, sumB int64
			for s := range buf {
				if buf[s].a != buf[s].b {
					torn.Add(1) // torn sensor frame observed under lock
				}
				sumA += buf[s].a
				sumB += buf[s].b
			}
			model = frame{seq: i, a: sumA, b: sumB}
			if err := p.Release(tok); err != nil {
				panic(err)
			}
		}
	}()

	// Planners: read the model and one sensor, concurrently.
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tok, err := p.Read(context.Background(), sensors[g%nSensors], world)
				if err != nil {
					panic(err)
				}
				if model.a != model.b {
					torn.Add(1) // torn world model observed under lock
				}
				if err := p.Release(tok); err != nil {
					panic(err)
				}
			}
		}()
	}

	wg.Wait()

	res := trace.Check(rec.Events())
	st := p.Stats()
	fmt.Printf("torn frames observed under locks: %d (must be 0)\n", torn.Load())
	fmt.Printf("trace: %d events, checker violations: %d (must be 0)\n", res.Events, len(res.Violations))
	fmt.Printf("protocol: %d requests, %d immediate, %d entitlements\n",
		st.Issued, st.ImmediateSats, st.Entitlements)
	if torn.Load() != 0 || !res.Ok() {
		for _, v := range res.Violations {
			fmt.Println("  ", v)
		}
		panic("violations detected")
	}
	fmt.Println("OK")
}
