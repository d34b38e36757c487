package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/client"
	"github.com/rtsync/rwrnlp/internal/obs"
)

// rig is the program under test as one closed-loop client sees it. Client g
// holds at most one request, so the handle lives in the rig's slot g and the
// hot path passes no handle through an interface (which would allocate).
type rig interface {
	acquire(g int, op *Op) error
	// verify runs inside the critical section and returns how many
	// correctness violations it saw beyond the holder witness.
	verify(g int, op *Op) int
	release(g int) error
	// counters snapshots the program's own counters, with shard labels
	// summed away; nil when the configuration exports none.
	counters() map[string]int64
	// cpu is the CPU time of every process involved; pid names the process
	// whose peak RSS is the program's.
	cpu() time.Duration
	pid() int
	close()
}

// Env locates what a run needs on disk.
type Env struct {
	Root  string // the checkout: the directory holding BENCHMARK.json
	Rnlpd string // the built daemon, once BuildDaemon has run
}

// FindRoot walks up from the working directory to the checkout root.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// BuildDaemon compiles cmd/rnlpd from the checkout's sources into
// .bench_build and reports how long that took. It is a pre-step: set-up
// time does not include it.
func (e *Env) BuildDaemon() (time.Duration, error) {
	start := time.Now()
	out := filepath.Join(e.Root, ".bench_build", "rnlpd")
	cmd := exec.Command("go", "build", "-o", out, "github.com/rtsync/rwrnlp/cmd/rnlpd")
	cmd.Dir = filepath.Join(e.Root, "benchmark")
	if b, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build rnlpd: %v: %s", err, b)
	}
	e.Rnlpd = out
	return time.Since(start), nil
}

// sumCounters folds "name{shard=i}" instances into "name".
func sumCounters(s obs.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for name, v := range s.Counters {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// ---------------------------------------------------------------------------
// lib_*: the library in this process.

type libSlot struct {
	tok rwrnlp.Token
	ids [3]rwrnlp.ResourceID
	_   [64]byte // one client's slot per cache line
}

type libRig struct {
	p     *rwrnlp.Protocol
	slots []libSlot
}

func specOf(s StreamSpec) (*rwrnlp.Spec, error) {
	q := 0
	for _, comp := range s.Components {
		q += len(comp)
	}
	b := rwrnlp.NewSpecBuilder(q)
	for _, comp := range s.Components {
		ids := make([]rwrnlp.ResourceID, len(comp))
		for i, r := range comp {
			ids[i] = rwrnlp.ResourceID(r)
		}
		if err := b.DeclareRequest(ids, nil); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func newLibRig(s StreamSpec, opts []rwrnlp.Option) (*libRig, error) {
	spec, err := specOf(s)
	if err != nil {
		return nil, err
	}
	return &libRig{p: rwrnlp.New(spec, opts...), slots: make([]libSlot, s.Clients)}, nil
}

func (r *libRig) acquire(g int, op *Op) error {
	sl := &r.slots[g]
	for k, res := range op.Footprint() {
		sl.ids[k] = rwrnlp.ResourceID(res)
	}
	var err error
	if op.Write {
		sl.tok, err = r.p.Write(context.Background(), sl.ids[:op.N]...)
	} else {
		sl.tok, err = r.p.Read(context.Background(), sl.ids[:op.N]...)
	}
	return err
}

func (r *libRig) verify(int, *Op) int { return 0 }

func (r *libRig) release(g int) error { return r.p.Release(r.slots[g].tok) }

func (r *libRig) counters() map[string]int64 {
	m := r.p.Metrics()
	if m == nil {
		return nil
	}
	return sumCounters(m.Snapshot())
}

func (r *libRig) cpu() time.Duration { return cpuSelf() }
func (r *libRig) pid() int           { return os.Getpid() }
func (r *libRig) close()             { _ = r.p.Close() }

// ---------------------------------------------------------------------------
// svc_*: a spawned rnlpd, driven through the client package.

// Daemon is a running cmd/rnlpd child process.
type Daemon struct {
	cmd *exec.Cmd
	URL string
}

// daemonArgs spells out cmd/rnlpd's serving configuration, so the workload
// does not change when the daemon's flag defaults do.
var daemonArgs = []string{
	"-addr", "127.0.0.1:0", "-resources", "16",
	"-declare", "0,1,2,3;4,5,6,7;8,9,10,11;12,13,14,15", "-lease-ttl", "60s",
}

// StartDaemon spawns rnlpd on an ephemeral loopback port and waits until it
// answers /healthz.
func StartDaemon(bin string) (*Daemon, error) {
	cmd := exec.Command(bin, daemonArgs...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &Daemon{cmd: cmd}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		// "rnlpd: listening on 127.0.0.1:PORT (node ...": the line the
		// daemon documents as its stable interface.
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			d.URL = "http://" + strings.Fields(rest)[0]
			break
		}
	}
	if d.URL == "" {
		d.Stop()
		return nil, errors.New("rnlpd exited without announcing its address")
	}
	go func() { // keep the pipe drained so the daemon never blocks on stdout
		for sc.Scan() {
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("rnlpd not healthy after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop terminates the daemon and waits until it has exited.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// Counters fetches the daemon's /metrics with shard labels summed away.
func (d *Daemon) Counters() (map[string]int64, error) {
	resp, err := http.Get(d.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return sumCounters(s), nil
}

type svcSlot struct {
	sess  *client.Session
	grant *client.Grant
	// last holds, per component, the newest fencing token this session was
	// granted: every later grant must carry a larger one.
	last []uint64
	_    [64]byte
}

type svcRig struct {
	d     *Daemon
	c     *client.Client
	slots []svcSlot
	// lastWrite is, per resource, the token of its newest write grant. It is
	// written only while that resource is write-held, so the lock under test
	// orders the accesses; any grant covering the resource must be newer.
	lastWrite []atomic.Uint64
}

// opTimeout bounds one wire operation, so that a wedged daemon shows up as
// counted failures instead of a hung run.
const opTimeout = 10 * time.Second

func newSvcRig(env *Env, s StreamSpec) (*svcRig, error) {
	d, err := StartDaemon(env.Rnlpd)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	c, err := client.New(ctx, []string{d.URL})
	if err != nil {
		d.Stop()
		return nil, err
	}
	spec := c.Spec()
	r := &svcRig{d: d, c: c, slots: make([]svcSlot, s.Clients), lastWrite: make([]atomic.Uint64, spec.Resources)}
	for g := range r.slots {
		sess, err := c.OpenSession(ctx)
		if err != nil {
			r.close()
			return nil, err
		}
		r.slots[g].sess = sess
		r.slots[g].last = make([]uint64, len(spec.Components))
	}
	return r, nil
}

func (r *svcRig) acquire(g int, op *Op) error {
	sl := &r.slots[g]
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var err error
	if op.Write {
		sl.grant, err = sl.sess.Write(ctx, op.Footprint()...)
	} else {
		sl.grant, err = sl.sess.Read(ctx, op.Footprint()...)
	}
	return err
}

func (r *svcRig) verify(g int, op *Op) (violations int) {
	sl := &r.slots[g]
	for _, ct := range sl.grant.Fencing() {
		if ct.Token <= sl.last[ct.Component] {
			violations++
		}
		sl.last[ct.Component] = ct.Token
	}
	for _, res := range op.Footprint() {
		tok, ok := sl.grant.Token(res)
		if !ok || tok <= r.lastWrite[res].Load() {
			violations++
		}
		if op.Write {
			r.lastWrite[res].Store(tok)
		}
	}
	return violations
}

func (r *svcRig) release(g int) error { return r.slots[g].sess.Release(r.slots[g].grant) }

// checkFence asserts the fencing contract on a quiet daemon: the live
// grant's token is accepted, and rejected once the grant is released.
func (r *svcRig) checkFence() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sess := r.slots[0].sess
	g, err := sess.Write(ctx, 0)
	if err != nil {
		return err
	}
	tok, _ := g.Token(0)
	comp := r.c.ComponentOf(0)
	if err := r.c.Fence(ctx, comp, tok); err != nil {
		_ = sess.Release(g)
		return fmt.Errorf("fence rejected the live token %d: %w", tok, err)
	}
	if err := sess.Release(g); err != nil {
		return err
	}
	if err := r.c.Fence(ctx, comp, tok); !errors.Is(err, client.ErrStaleToken) {
		return fmt.Errorf("fence of released token %d: got %v, want stale", tok, err)
	}
	return nil
}

func (r *svcRig) counters() map[string]int64 {
	c, err := r.d.Counters()
	if err != nil {
		return nil
	}
	return c
}

func (r *svcRig) cpu() time.Duration {
	d, _ := cpuOf(r.d.cmd.Process.Pid)
	return cpuSelf() + d
}

func (r *svcRig) pid() int { return r.d.cmd.Process.Pid }

func (r *svcRig) close() {
	for g := range r.slots {
		if s := r.slots[g].sess; s != nil {
			_ = s.Close()
		}
	}
	r.d.Stop()
}
