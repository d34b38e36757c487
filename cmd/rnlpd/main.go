// Command rnlpd is the distributed lock-service daemon: it serves the R/W
// RNLP runtime lock over HTTP with sessions, leases, and fencing tokens
// (package internal/service), and mounts the protocol's full debug surface
// so rnlptop and flightdump work against a live node.
//
//	rnlpd -resources 8 -declare "0,1;2,3"            # single node on :6060
//	rnlpd -addr 127.0.0.1:0 -lease-ttl 2s            # ephemeral port (printed)
//	rnlpd -node http://a:6060 \
//	      -nodes http://a:6060,http://b:6060         # one node of a cluster
//
// Components (connected components of the declared footprints) are placed
// onto the nodes of -nodes by consistent hashing; this process serves the
// components the ring assigns to -node and rejects the rest with a
// wrong_node redirect. Watch a live node with:
//
//	rnlptop -url http://localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":6060", "listen address (host:port; port 0 picks one and prints it)")
		resources = flag.Int("resources", 8, "number of resources (IDs 0..q-1)")
		declare   = flag.String("declare", "", "declared read groups, e.g. \"0,1;2,3\" (semicolon-separated; shapes drive component formation)")
		leaseTTL  = flag.Duration("lease-ttl", 5*time.Second, "default session lease")
		maxTTL    = flag.Duration("max-lease-ttl", 0, "cap on client-requested leases (0 = 12x lease-ttl)")
		sweep     = flag.Duration("sweep", 0, "lease sweep interval (0 = lease-ttl/4)")
		acqTO     = flag.Duration("acquire-timeout", 60*time.Second, "server-side cap on one blocking acquire")
		node      = flag.String("node", "", "this node's identity in -nodes (default: single node)")
		nodes     = flag.String("nodes", "", "static cluster map, comma-separated node identities")
		vnodes    = flag.Int("vnodes", 0, "consistent-hash virtual nodes per node (0 = default)")
		placeh    = flag.Bool("placeholders", true, "enable the Sec. 3.4 placeholder optimization")
		flight    = flag.Int("flight", 4096, "flight-recorder ring depth per shard (0 disables)")
		tsInt     = flag.Duration("timeseries", time.Second, "telemetry capture interval (0 disables)")
		attrTopK  = flag.Int("attr", 10, "causal-attribution top-K blocking chains (0 disables)")
	)
	flag.Parse()

	b := rwrnlp.NewSpecBuilder(*resources)
	if *declare != "" {
		for _, group := range strings.Split(*declare, ";") {
			var ids []rwrnlp.ResourceID
			for _, f := range strings.Split(group, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fatalf("bad -declare %q: %v", group, err)
				}
				ids = append(ids, rwrnlp.ResourceID(n))
			}
			if err := b.DeclareRequest(ids, nil); err != nil {
				fatalf("declare %q: %v", group, err)
			}
		}
	}

	opts := []rwrnlp.Option{rwrnlp.WithMetrics()}
	if *placeh {
		opts = append(opts, rwrnlp.WithPlaceholders())
	}
	if *flight > 0 {
		opts = append(opts, rwrnlp.WithFlightRecorder(*flight))
	}
	if *tsInt > 0 {
		opts = append(opts, rwrnlp.WithTimeSeries(*tsInt, 0))
	}
	if *attrTopK > 0 {
		opts = append(opts, rwrnlp.WithAttribution(*attrTopK))
	}

	cfg := service.Config{
		Spec:           b.Build(),
		Options:        opts,
		LeaseTTL:       *leaseTTL,
		MaxLeaseTTL:    *maxTTL,
		SweepInterval:  *sweep,
		AcquireTimeout: *acqTO,
		Node:           *node,
		VNodes:         *vnodes,
	}
	if *nodes != "" {
		for _, n := range strings.Split(*nodes, ",") {
			if n = strings.TrimSpace(n); n != "" {
				cfg.Nodes = append(cfg.Nodes, n)
			}
		}
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	// The "listening on" line is a stable interface: the integration tests
	// (and scripts) parse it to learn an ephemeral port.
	fmt.Printf("rnlpd: listening on %s (node %s, lease %s)\n", ln.Addr(), srv.SpecInfo().Node, *leaseTTL)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("rnlpd: %v, draining\n", sig)
	case err := <-errc:
		fatalf("serve: %v", err)
	}
	// Close first: it cancels every session context, so blocked acquire
	// handlers return immediately and Shutdown drains fast.
	_ = srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	fmt.Println("rnlpd: bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rnlpd: "+format+"\n", args...)
	os.Exit(1)
}
