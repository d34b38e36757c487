package rwrnlp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/rtsync/rwrnlp"
	"github.com/rtsync/rwrnlp/internal/locks/mutexrnlp"
	"github.com/rtsync/rwrnlp/internal/obs"
)

var bgv2 = context.Background()

// componentSpec builds a spec with k disjoint components of two resources
// each: component i is {2i, 2i+1}, connected by a declared read group.
func componentSpec(t testing.TB, k int) *rwrnlp.Spec {
	t.Helper()
	b := rwrnlp.NewSpecBuilder(2 * k)
	for i := 0; i < k; i++ {
		a, bID := rwrnlp.ResourceID(2*i), rwrnlp.ResourceID(2*i+1)
		if err := b.DeclareRequest([]rwrnlp.ResourceID{a, bID}, nil); err != nil {
			t.Fatal(err)
		}
	}
	spec := b.Build()
	if got := spec.NumComponents(); got != k {
		t.Fatalf("NumComponents = %d, want %d", got, k)
	}
	return spec
}

// oneComponentSpec is componentSpec(k) plus one write-only declaration over
// all 2k resources: the same read sharing, joined into a single component —
// how a system asks for one total order over everything.
func oneComponentSpec(t testing.TB, k int) *rwrnlp.Spec {
	t.Helper()
	b := rwrnlp.NewSpecBuilder(2 * k)
	all := make([]rwrnlp.ResourceID, 2*k)
	for i := range all {
		all[i] = rwrnlp.ResourceID(i)
	}
	for i := 0; i < k; i++ {
		if err := b.DeclareRequest(all[2*i:2*i+2], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeclareRequest(nil, all); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestDoubleReleaseToken(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 2))
	tok, err := p.Write(bgv2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("second Release: got %v, want ErrAlreadyReleased", err)
	}
	// A zero Token was never acquired, so releasing it is the same error.
	var zero rwrnlp.Token
	if err := p.Release(zero); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("zero-token Release: got %v, want ErrAlreadyReleased", err)
	}
}

func TestDoubleReleaseIncremental(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 1))
	inc, err := p.AcquireIncremental(bgv2, nil, []rwrnlp.ResourceID{0, 1}, nil, []rwrnlp.ResourceID{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Release(); err != nil {
		t.Fatal(err)
	}
	if err := inc.Release(); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("second Release: got %v, want ErrAlreadyReleased", err)
	}
	// The handle is dead after Release: further asks report the same.
	if err := inc.Acquire(bgv2, 1); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("Acquire after Release: got %v, want ErrAlreadyReleased", err)
	}
}

func TestDoubleReleaseUpgradeable(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 1))
	u, err := p.AcquireUpgradeable(bgv2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Reading() {
		if err := u.Upgrade(bgv2); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Release(); err != nil {
		t.Fatal(err)
	}
	if err := u.Release(); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("second Release: got %v, want ErrAlreadyReleased", err)
	}
}

// After a context-canceled Upgrade the read locks are gone and the write half
// was withdrawn, so the pair is over: Release must report ErrAlreadyReleased
// deterministically rather than panic or double-free.
func TestUpgradeCanceledThenRelease(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 1))
	blocker, err := p.Read(bgv2, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := p.AcquireUpgradeable(bgv2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Reading() {
		t.Fatal("upgradeable should share the read phase with the blocker")
	}
	// The blocker still holds read access, so the upgrade cannot complete;
	// cancel it via context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := u.Upgrade(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Upgrade under canceled ctx: got %v, want context.Canceled", err)
	}
	if err := u.Release(); !errors.Is(err, rwrnlp.ErrAlreadyReleased) {
		t.Errorf("Release after canceled Upgrade: got %v, want ErrAlreadyReleased", err)
	}
	if err := p.Release(blocker); err != nil {
		t.Fatal(err)
	}
	// The protocol is still functional: a fresh writer gets through.
	tok, err := p.Write(bgv2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
}

func TestTypedSentinelErrors(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 1))
	if _, err := p.Acquire(bgv2, nil, nil); !errors.Is(err, rwrnlp.ErrEmptyRequest) {
		t.Errorf("empty request: got %v, want ErrEmptyRequest", err)
	}
	if _, err := p.Read(bgv2, 99); !errors.Is(err, rwrnlp.ErrUnknownResource) {
		t.Errorf("out-of-range resource: got %v, want ErrUnknownResource", err)
	}
}

func TestCrossComponentRejected(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 2)) // components {0,1} and {2,3}
	if _, err := p.AcquireIncremental(bgv2, nil, []rwrnlp.ResourceID{0, 2}, nil, []rwrnlp.ResourceID{0}); !errors.Is(err, rwrnlp.ErrCrossComponent) {
		t.Errorf("cross-component incremental: got %v, want ErrCrossComponent", err)
	}
	if _, err := p.AcquireUpgradeable(bgv2, 1, 3); !errors.Is(err, rwrnlp.ErrCrossComponent) {
		t.Errorf("cross-component upgradeable: got %v, want ErrCrossComponent", err)
	}
}

// An undeclared footprint spanning components is still served — by the
// documented ordered slow path — and counted in protocol_slow_path.
func TestCrossComponentSlowPath(t *testing.T) {
	p := rwrnlp.New(componentSpec(t, 3), rwrnlp.WithMetrics())
	if got := p.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	// Read across all three components (never declared as one request).
	tok, err := p.Read(bgv2, 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	// Mixed read/write across two components.
	tok, err = p.Acquire(bgv2, []rwrnlp.ResourceID{1}, []rwrnlp.ResourceID{5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics().Snapshot()
	if got := snap.Counters[obs.MSlowPath]; got != 2 {
		t.Errorf("protocol_slow_path = %d, want 2", got)
	}
	// Declared single-component requests never touch the slow path.
	tok, err = p.Read(bgv2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(tok)
	if got := p.Metrics().Snapshot().Counters[obs.MSlowPath]; got != 2 {
		t.Errorf("slow path used for a declared footprint: counter = %d", got)
	}
}

// Disjoint components are served by independent shards: under a -race stress
// with per-component goroutines, every shard records its own traffic and the
// shard counters add up to the protocol totals.
func TestShardIndependenceStress(t *testing.T) {
	const k = 4
	const perShard = 2
	const iters = 150
	p := rwrnlp.New(componentSpec(t, k), rwrnlp.WithMetrics())
	if got := p.NumShards(); got != k {
		t.Fatalf("NumShards = %d, want %d", got, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < k*perShard; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			comp := g % k
			a, b := rwrnlp.ResourceID(2*comp), rwrnlp.ResourceID(2*comp+1)
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					tok, err := p.Write(bgv2, a, b)
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				case 1:
					tok, err := p.Read(bgv2, a, b)
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				default:
					tok, err := p.Acquire(bgv2, []rwrnlp.ResourceID{a}, []rwrnlp.ResourceID{b})
					if err != nil {
						t.Error(err)
						return
					}
					p.Release(tok)
				}
			}
		}(g)
	}
	wg.Wait()

	snap := p.Metrics().Snapshot()
	const want = perShard * iters
	var totalAcq, totalFast, totalFastW, totalMig, totalMigW int64
	for s := 0; s < k; s++ {
		acq := snap.Counters[obs.ShardMetric(obs.MShardAcquires, s)]
		rel := snap.Counters[obs.ShardMetric(obs.MShardReleases, s)]
		// Any acquisition may be served by a fast-path plane (reader or
		// writer), which bypasses the shard engine entirely; every
		// acquisition is accounted by exactly one of the planes.
		fast := snap.Counters[obs.ShardMetric(obs.MFastPathHit, s)]
		fastW := snap.Counters[obs.ShardMetric(obs.MFastWriteHit, s)]
		if acq+fast+fastW != want || rel+fast+fastW != want {
			t.Errorf("shard %d: acquires=%d releases=%d fast=%d fastW=%d, want %d plane-summed",
				s, acq, rel, fast, fastW, want)
		}
		totalAcq += acq
		totalFast += fast
		totalFastW += fastW
		totalMig += snap.Counters[obs.ShardMetric(obs.MFastPathMigrated, s)]
		totalMigW += snap.Counters[obs.ShardMetric(obs.MFastWriteMigrated, s)]
	}
	if got := snap.Counters[obs.MSlowPath]; got != 0 {
		t.Errorf("declared per-component traffic hit the slow path %d times", got)
	}
	// The aggregated protocol lifecycle counters see every RSM-served
	// request, plus one surrogate per migrated fast reader/writer. A doomed
	// claim's surrogate can be retired inline before the migration counter
	// increments, so surrogates ≥ counted migrations rather than equal.
	rsmServed := int64(k*want) - totalFast - totalFastW
	surr := snap.Counters[obs.MIssued] - rsmServed
	if surr < totalMig+totalMigW {
		t.Errorf("protocol_issued = %d: %d surrogates, but %d migrations counted",
			snap.Counters[obs.MIssued], surr, totalMig+totalMigW)
	}
	// Everything is released: every issued request (surrogates included)
	// must have been retired — a shortfall is a phantom-lock leak.
	if stats := p.Stats(); stats.Issued != stats.Completed+stats.Canceled {
		t.Errorf("request leak: Issued=%d Completed=%d Canceled=%d",
			stats.Issued, stats.Completed, stats.Canceled)
	}
}

// A spec that declares one request over everything collapses the protocol to
// a single engine whatever its read groups; requests behave identically.
func TestWithoutSharding(t *testing.T) {
	p := rwrnlp.New(oneComponentSpec(t, 4), rwrnlp.WithMetrics())
	if got := p.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d, want 1", got)
	}
	tok, err := p.Read(bgv2, 0, 2, 4, 6) // spans four read groups: fine on one engine
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(tok); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Snapshot().Counters[obs.MSlowPath]; got != 0 {
		t.Errorf("protocol_slow_path = %d: the footprint was served piecewise", got)
	}
}

// The shards are the spec's components, for every shape of spec the suite
// uses; and the mutex RNLP, which needs one timestamp order over resources
// nothing else links, gets it from its spec: a footprint spanning what would
// be singleton components is one RSM request, not one slice per resource.
func TestShardsAreComponents(t *testing.T) {
	type decl struct{ read, write []rwrnlp.ResourceID }
	build := func(q int, decls ...decl) *rwrnlp.Spec {
		b := rwrnlp.NewSpecBuilder(q)
		for _, d := range decls {
			if err := b.DeclareRequest(d.read, d.write); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	ids := func(v ...rwrnlp.ResourceID) []rwrnlp.ResourceID { return v }
	for _, tc := range []struct {
		name string
		spec *rwrnlp.Spec
		want int
	}{
		{"no resources", build(0), 0},
		{"nothing declared", build(4), 4},
		{"one read group and two singletons", build(4, decl{read: ids(0, 1)}), 3},
		{"k read groups", componentSpec(t, 4), 4},
		{"read groups chained by a write", build(4, decl{read: ids(0, 1)}, decl{read: ids(2, 3)}, decl{write: ids(1, 2)}), 1},
		{"mixed request", build(3, decl{read: ids(0, 1), write: ids(2)}), 1},
		{"k read groups under one write-only declaration", oneComponentSpec(t, 4), 1},
	} {
		if got := tc.spec.NumComponents(); got != tc.want {
			t.Errorf("%s: NumComponents = %d, want %d", tc.name, got, tc.want)
		}
		for _, opts := range [][]rwrnlp.Option{nil, {rwrnlp.WithFastPath(rwrnlp.FastPathConfig{}), rwrnlp.WithMetrics(), rwrnlp.WithFlightRecorder(16)}} {
			if got := rwrnlp.New(tc.spec, opts...).NumShards(); got != tc.want {
				t.Errorf("%s: NumShards = %d, want NumComponents = %d", tc.name, got, tc.want)
			}
		}
	}

	l := mutexrnlp.New(6)
	tok, err := l.Acquire(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Issued != 1 || st.Satisfied != 1 {
		t.Errorf("3-resource mutex RNLP footprint: Issued=%d Satisfied=%d, want one request", st.Issued, st.Satisfied)
	}
	if err := l.Release(tok); err != nil {
		t.Fatal(err)
	}
}

func TestComponentAccessors(t *testing.T) {
	spec := componentSpec(t, 3)
	for r := 0; r < 6; r++ {
		want := r / 2
		if got := spec.Component(rwrnlp.ResourceID(r)); got != want {
			t.Errorf("Component(%d) = %d, want %d", r, got, want)
		}
	}
	for c := 0; c < 3; c++ {
		rs := spec.ComponentResources(c)
		if len(rs) != 2 || rs[0] != rwrnlp.ResourceID(2*c) || rs[1] != rwrnlp.ResourceID(2*c+1) {
			t.Errorf("ComponentResources(%d) = %v", c, rs)
		}
	}
}

func ExampleProtocol_NumShards() {
	b := rwrnlp.NewSpecBuilder(4)
	b.DeclareRequest([]rwrnlp.ResourceID{0, 1}, nil)
	b.DeclareRequest([]rwrnlp.ResourceID{2, 3}, nil)
	p := rwrnlp.New(b.Build())
	fmt.Println(p.NumShards())
	// Output: 2
}
