package service

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
)

// BenchmarkAcquireRelease prices the network tier as a same-run ablation
// pair. Both variants run the identical service plane — session lookup,
// lease check, fencing mint/retire, and the underlying protocol acquire —
// so the delta is exactly what rnlpd adds over embedding the library:
//
//	net=off  direct Server method calls in-process
//	net=on   client package → JSON over loopback HTTP → same Server
//
// A third leg prices the hop as cmd/rnlpd actually runs it:
//
//	net=on,obs=rnlpd  net=on with the daemon's observability options and a
//	                  full attribution ring
//
// Every traced acquire joins its trace ID to the attribution ring, so a join
// whose cost grew with ring occupancy (it once scanned all 4096 chains, and
// took a third of the daemon's throughput) shows here and in no other pair.
//
// Bounded by the `net` and `net-obs` rows of `make pair-gates`
// (cmd/benchjson/gates.go).
func BenchmarkAcquireRelease(b *testing.B) {
	ctx := context.Background()

	b.Run("net=off", func(b *testing.B) {
		srv, err := NewServer(Config{Spec: testSpec(b, 4), LeaseTTL: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		info, err := srv.OpenSession(time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		res := []client.ResourceID{0, 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := srv.Acquire(ctx, info.ID, nil, res)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Release(info.ID, g.Handle); err != nil {
				b.Fatal(err)
			}
		}
	})

	overHTTP := func(b *testing.B, srv *Server) {
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		c, err := client.New(ctx, []string{hs.URL})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := c.OpenSession(ctx, client.WithTTL(time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := sess.Write(ctx, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := sess.Release(g); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("net=on", func(b *testing.B) {
		srv, err := NewServer(Config{Spec: testSpec(b, 4), LeaseTTL: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		overHTTP(b, srv)
	})

	b.Run("net=on,obs=rnlpd", func(b *testing.B) {
		srv, err := NewServer(Config{Spec: testSpec(b, 4), LeaseTTL: time.Minute, Options: []rwrnlp.Option{
			rwrnlp.WithMetrics(), rwrnlp.WithFlightRecorder(4096),
			rwrnlp.WithTimeSeries(time.Second, 0), rwrnlp.WithAttribution(10),
		}})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		// Fill the attribution ring (4096 chains). Only requests that go
		// through an RSM leave a chain, and a footprint spanning two
		// components always does — one chain per component.
		info, err := srv.OpenSession(time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4096/2; i++ {
			g, err := srv.AcquireTraced(ctx, info.ID, nil, []client.ResourceID{0, 2}, "prefill-"+strconv.Itoa(i), "")
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Release(info.ID, g.Handle); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := srv.Protocol().ChainByTag("prefill-0"); !ok {
			b.Fatal("attribution ring not filled: the oldest prefill chain is missing")
		}
		overHTTP(b, srv)
	})
}
