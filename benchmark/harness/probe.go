package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/rtsync/rwrnlp/client"
)

// OpenLoopProbe offers a fresh rnlpd a fixed rate of acquire→release
// cycles for d, over two sessions, each op timed from the instant it was
// due — so the wait a stall imposes on the ops behind it counts — and
// reports how late the generator itself ran. It is a diagnostic, not a
// gate: on a shared two-core box the scheduler sets this tail.
func OpenLoopProbe(env *Env, seed int64, rate int, d time.Duration, m map[string]float64) error {
	w := WorkloadByName("svc_wire_closed")
	r, err := newSvcRig(env, w.Stream)
	if err != nil {
		return err
	}
	defer r.close()
	streams := Generate(seed, w.Stream)
	interval := time.Second / time.Duration(rate)
	clients := len(r.slots)
	latency, late := make([]Hist, clients), make([]Hist, clients)
	errs := make([]error, clients)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := r.slots[g].sess
			for i := 0; ; i++ {
				offset := time.Duration(i*clients+g) * interval
				if offset >= d {
					return
				}
				due := start.Add(offset)
				time.Sleep(time.Until(due))
				late[g].Record(int64(time.Since(due)))
				op := &streams[g][i%len(streams[g])]
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				var grant *client.Grant
				var err error
				if op.Write {
					grant, err = sess.Write(ctx, op.Footprint()...)
				} else {
					grant, err = sess.Read(ctx, op.Footprint()...)
				}
				cancel()
				if err == nil {
					latency[g].Record(int64(time.Since(due)))
					err = sess.Release(grant)
				}
				if err != nil {
					errs[g] = fmt.Errorf("open-loop probe op %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < clients; g++ {
		latency[0].Merge(&latency[g])
		late[0].Merge(&late[g])
		if errs[g] != nil {
			errs[0] = errs[g]
		}
	}
	if errs[0] != nil {
		return errs[0]
	}
	m["client.open_p50_us"] = latency[0].Quantile(0.50) / 1e3
	m["client.open_p99_us"] = latency[0].Quantile(0.99) / 1e3
	m["gen.late_p99_us"] = late[0].Quantile(0.99) / 1e3
	return nil
}
