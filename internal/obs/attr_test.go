package obs

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/rtsync/rwrnlp/internal/core"
)

// TestAttributorFig2 drives the acceptance scenario: a reader issued behind
// an entitled writer that is itself blocked by a read phase (the paper's
// Fig. 2). The attribution report must name the exact blocking request IDs,
// and every chain's delay decomposition must sum to the measured wait.
func TestAttributorFig2(t *testing.T) {
	m := NewMetrics()
	a := NewAttributor(m, 10)
	rsm := core.NewRSM(core.NewSpecBuilder(2).Build(), core.Options{})
	rsm.SetObserver(NewPipeline(Sinks{Attribution: a}))

	// t=1: read A holds {0} — the read phase.
	ra, err := rsm.Issue(1, []core.ResourceID{0}, nil, "A")
	if err != nil {
		t.Fatal(err)
	}
	// t=2: write B wants {0} — entitled behind A's read phase (Rule W2).
	wb, err := rsm.Issue(2, nil, []core.ResourceID{0}, "B")
	if err != nil {
		t.Fatal(err)
	}
	// t=3: read C wants {0} — concedes to the entitled writer B (Def. 3).
	rc, err := rsm.Issue(3, []core.ResourceID{0}, nil, "C")
	if err != nil {
		t.Fatal(err)
	}

	// t=6: A completes; B is satisfied after 4 ticks blocked by the read
	// phase. t=9: B completes; C is satisfied after 6 ticks.
	if err := rsm.Complete(6, ra); err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(9, wb); err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(10, rc); err != nil {
		t.Fatal(err)
	}

	// A was satisfied at issuance.
	if got := m.Counter(AttrImmediate).Value(); got != 1 {
		t.Errorf("immediate count = %d, want 1 (request A)", got)
	}

	// Writer B: entitled at issue (t=2), satisfied t=6. The entire 4-tick
	// delay is read-phase blocking (Lemmas 6–7), attributed to A exactly.
	cb, ok := a.Chain(wb)
	if !ok {
		t.Fatalf("no chain recorded for B (req %d)", wb)
	}
	wantB := []DelayPart{{AttrWriterReadPhase, 4}}
	if !reflect.DeepEqual(cb.Parts, wantB) {
		t.Errorf("B parts = %v, want %v", cb.Parts, wantB)
	}
	if !reflect.DeepEqual(cb.IssueBlockers, []core.ReqID{ra}) {
		t.Errorf("B issue blockers = %v, want [%d]", cb.IssueBlockers, ra)
	}
	if !reflect.DeepEqual(cb.EntitleBlockers, []core.ReqID{ra}) {
		t.Errorf("B entitle blockers = %v, want [%d]", cb.EntitleBlockers, ra)
	}

	// Reader C: issued t=3, entitled t=6 (when B was satisfied), satisfied
	// t=9. 3 ticks conceded to the entitled writer (Def. 3/Lemma 3) plus 3
	// ticks of entitled wait (Lemma 2) — summing to the measured 6.
	cc, ok := a.Chain(rc)
	if !ok {
		t.Fatalf("no chain recorded for C (req %d)", rc)
	}
	wantC := []DelayPart{{AttrReaderBehindWriter, 3}, {AttrReaderEntitledWait, 3}}
	if !reflect.DeepEqual(cc.Parts, wantC) {
		t.Errorf("C parts = %v, want %v", cc.Parts, wantC)
	}
	if cc.Delay != 6 {
		t.Errorf("C delay = %d, want 6", cc.Delay)
	}
	var sum int64
	for _, p := range cc.Parts {
		sum += p.Span
	}
	if sum != cc.Delay {
		t.Errorf("C decomposition sums to %d, want measured wait %d", sum, cc.Delay)
	}
	if !reflect.DeepEqual(cc.IssueBlockers, []core.ReqID{wb}) {
		t.Errorf("C issue blockers = %v, want [%d]", cc.IssueBlockers, wb)
	}
	if !reflect.DeepEqual(cc.EntitleBlockers, []core.ReqID{wb}) {
		t.Errorf("C entitle blockers = %v, want [%d]", cc.EntitleBlockers, wb)
	}

	// The report ranks C's 6-tick wait worst and renders the full causal
	// chain C ← B ← A with the exact request IDs.
	rep := a.Report()
	if rep.Checked != 3 {
		t.Errorf("checked = %d, want 3 (A immediate, B, C)", rep.Checked)
	}
	if len(rep.Top) == 0 || rep.Top[0].Req != rc {
		t.Fatalf("top chain = %+v, want req %d first", rep.Top, rc)
	}
	s := rep.String()
	for _, want := range []string{
		"tag=C", "delay=6",
		"reader_behind_entitled_writer:3", "reader_entitled_wait:3",
		"writer_blocked_by_read_phase:4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	// The chain expansion must name B as C's blocker and A as B's.
	ci := strings.Index(s, "tag=C")
	bi := strings.Index(s[ci:], "tag=B")
	if bi < 0 {
		t.Errorf("report does not expand C's chain through B:\n%s", s)
	}

	// Component histograms landed in the shared registry.
	if st := m.Histogram(AttrWriterReadPhase).Stats(); st.Count != 1 || st.Sum != 4 {
		t.Errorf("writer read-phase hist = %+v, want count=1 sum=4", st)
	}
	if st := m.Histogram(AttrReaderBehindWriter).Stats(); st.Count != 1 || st.Sum != 3 {
		t.Errorf("reader behind-writer hist = %+v, want count=1 sum=3", st)
	}
}

// TestAttributorTopK keeps only the K worst chains, in descending delay
// order.
func TestAttributorTopK(t *testing.T) {
	m := NewMetrics()
	a := NewAttributor(m, 3)
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{})
	rsm.SetObserver(NewPipeline(Sinks{Attribution: a}))

	// Six writers contend for resource 0 in sequence: later ones wait longer.
	var ids []core.ReqID
	for i := 0; i < 6; i++ {
		id, err := rsm.Issue(core.Time(i+1), nil, []core.ResourceID{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if err := rsm.Complete(core.Time(10*(i+1)), id); err != nil {
			t.Fatal(err)
		}
	}

	rep := a.Report()
	if len(rep.Top) != 3 {
		t.Fatalf("top size = %d, want 3", len(rep.Top))
	}
	for i := 1; i < len(rep.Top); i++ {
		if rep.Top[i].Delay > rep.Top[i-1].Delay {
			t.Errorf("top not in descending delay order: %+v", rep.Top)
		}
	}
	// The worst chain is the last writer.
	if rep.Top[0].Req != ids[5] {
		t.Errorf("worst chain req = %d, want %d", rep.Top[0].Req, ids[5])
	}
}

// TestAttributorUpgradeRestart: the write half of an upgradeable pair
// restarts its wait clock when the read segment finishes, so its chain's
// delay covers only the post-upgrade wait.
func TestAttributorUpgradeRestart(t *testing.T) {
	m := NewMetrics()
	a := NewAttributor(m, 4)
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{})
	rsm.SetObserver(NewPipeline(Sinks{Attribution: a}))

	// A plain reader holds the read phase first, so the write half cannot be
	// satisfied as soon as the read segment finishes.
	other, err := rsm.Issue(1, []core.ResourceID{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rsm.IssueUpgradeable(2, []core.ResourceID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// t=5: the read segment ends; the write half starts waiting for real.
	if err := rsm.FinishRead(5, h, true); err != nil {
		t.Fatal(err)
	}
	// t=8: the other reader leaves; the write half is satisfied.
	if err := rsm.Complete(8, other); err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(9, h.WriteID); err != nil {
		t.Fatal(err)
	}

	c, ok := a.Chain(h.WriteID)
	if !ok {
		t.Fatalf("no chain for write half %d", h.WriteID)
	}
	if c.Delay != 3 {
		t.Errorf("write half delay = %d, want 3 (wait restarts at upgrade)", c.Delay)
	}
	var sum int64
	for _, p := range c.Parts {
		sum += p.Span
	}
	if sum != c.Delay {
		t.Errorf("parts sum %d != delay %d", sum, c.Delay)
	}
}

// satisfyNow feeds the attributor one request's whole lifecycle, satisfied at
// issuance, so exactly one chain is remembered.
func satisfyNow(a *Attributor, id core.ReqID, tag any) {
	pl := NewPipeline(Sinks{Attribution: a})
	pl.Observe(core.Event{Type: core.EvIssued, T: 1, Req: id, Kind: core.KindWrite, Tag: tag})
	pl.Observe(core.Event{Type: core.EvSatisfied, T: 1, Req: id})
	pl.Observe(core.Event{Type: core.EvCompleted, T: 2, Req: id})
}

// scanRing is the reference the index replaced: the retained chains are the
// last ringCap inserted, searched newest-first.
type scanRing struct {
	ringCap int
	reqs    []core.ReqID
	tags    []string
}

func (r *scanRing) insert(id core.ReqID, tag string) {
	r.reqs, r.tags = append(r.reqs, id), append(r.tags, tag)
	if len(r.reqs) > r.ringCap {
		r.reqs, r.tags = r.reqs[1:], r.tags[1:]
	}
}

func (r *scanRing) byTag(tag string) (core.ReqID, bool) {
	for i := len(r.tags) - 1; i >= 0 && tag != ""; i-- {
		if r.tags[i] == tag {
			return r.reqs[i], true
		}
	}
	return 0, false
}

func (r *scanRing) byReq(id core.ReqID) (string, bool) {
	for i := len(r.reqs) - 1; i >= 0; i-- {
		if r.reqs[i] == id {
			return r.tags[i], true
		}
	}
	return "", false
}

// checkAgainstScan compares the indexed lookups with the reference for one
// tag and one request ID.
func checkAgainstScan(t *testing.T, a *Attributor, ref *scanRing, tag string, id core.ReqID) {
	t.Helper()
	wantReq, wantOK := ref.byTag(tag)
	c, ok := a.ChainByTag(tag)
	if ok != wantOK || (ok && (c.Req != wantReq || c.Tag != tag)) {
		t.Fatalf("ChainByTag(%q) = req %d tag %q ok=%v, linear scan says req %d ok=%v",
			tag, c.Req, c.Tag, ok, wantReq, wantOK)
	}
	wantTag, wantOK := ref.byReq(id)
	c, ok = a.Chain(id)
	if ok != wantOK || (ok && (c.Req != id || c.Tag != wantTag)) {
		t.Fatalf("Chain(%d) = req %d tag %q ok=%v, linear scan says tag %q ok=%v",
			id, c.Req, c.Tag, ok, wantTag, wantOK)
	}
}

// TestChainByTagCases pins the lookups the service tier depends on, on a
// four-chain ring.
func TestChainByTagCases(t *testing.T) {
	a := NewAttributor(NewMetrics(), 1)
	a.ringCap = 4
	lookup := func(tag string) core.ReqID {
		c, ok := a.ChainByTag(tag)
		if !ok {
			return 0
		}
		return c.Req
	}

	satisfyNow(a, 1, "x")
	satisfyNow(a, 2, nil)
	satisfyNow(a, 3, "x")
	satisfyNow(a, 4, 7) // non-string tags are stringified once, at satisfaction
	if got := lookup("x"); got != 3 {
		t.Errorf("newest of duplicates: ChainByTag(x) = %d, want 3", got)
	}
	if got := lookup("7"); got != 4 {
		t.Errorf("hit: ChainByTag(7) = %d, want 4", got)
	}
	if got := lookup("never"); got != 0 {
		t.Errorf("miss: ChainByTag(never) = %d, want none", got)
	}
	if got := lookup(""); got != 0 {
		t.Errorf("untagged chains must not be reachable by the empty tag, got %d", got)
	}

	// Evicting the older duplicate must leave the newer one indexed.
	satisfyNow(a, 5, "y")
	if got := lookup("x"); got != 3 {
		t.Errorf("after evicting req 1: ChainByTag(x) = %d, want 3", got)
	}
	// Evicting a tag's newest chain empties the tag: FIFO order means no
	// older chain with it can still be retained.
	satisfyNow(a, 6, nil)
	satisfyNow(a, 7, nil)
	if got := lookup("x"); got != 0 {
		t.Errorf("evicted: ChainByTag(x) = %d, want none", got)
	}
	if _, ok := a.Chain(3); ok {
		t.Error("evicted: Chain(3) still retained")
	}
	if len(a.byTag) != 2 || len(a.recent) != 4 || len(a.ring) != 4 {
		t.Errorf("index sizes: byTag=%d recent=%d ring=%d, want 2/4/4 (tags 7 and y; four chains)",
			len(a.byTag), len(a.recent), len(a.ring))
	}
}

// TestChainByTagMatchesLinearScan is the index-vs-scan property test: random
// tagged, untagged, duplicate-tag and duplicate-ID chains are driven past the
// ring capacity, and after every insert the indexed lookups must agree with a
// newest-first linear scan of the retained chains.
func TestChainByTagMatchesLinearScan(t *testing.T) {
	sequences := 10000
	if testing.Short() {
		sequences = 1000
	}
	rng := rand.New(rand.NewSource(42))
	for seq := 0; seq < sequences; seq++ {
		a := NewAttributor(NewMetrics(), 1)
		a.ringCap = 1 + rng.Intn(12)
		ref := &scanRing{ringCap: a.ringCap}
		tags := 1 + rng.Intn(6)
		for n, next := 3*a.ringCap+rng.Intn(8), core.ReqID(0); n > 0; n-- {
			id, tag := next+1, ""
			if next > 0 && rng.Intn(16) == 0 {
				id = 1 + core.ReqID(rng.Intn(int(next))) // a request ID seen before
			} else {
				next++
			}
			if rng.Intn(4) > 0 {
				tag = string(rune('a' + rng.Intn(tags)))
			}
			if tag == "" {
				satisfyNow(a, id, nil)
			} else {
				satisfyNow(a, id, tag)
			}
			ref.insert(id, tag)
			for k := 0; k <= tags; k++ { // every tag in use, and one that never is
				checkAgainstScan(t, a, ref, string(rune('a'+k)), 1+core.ReqID(rng.Intn(int(next))))
			}
		}
		if len(a.ring) > a.ringCap || len(a.recent) > a.ringCap || len(a.byTag) > a.ringCap {
			t.Fatalf("ring=%d recent=%d byTag=%d exceed cap %d", len(a.ring), len(a.recent), len(a.byTag), a.ringCap)
		}
	}

	// One sequence at the real capacity: unique trace-like tags with a few
	// repeats, one and a half times round the ring.
	a := NewAttributor(NewMetrics(), 1)
	ref := &scanRing{ringCap: attrRecentCap}
	for i := 1; i <= attrRecentCap+attrRecentCap/2; i++ {
		tag := "t" + strconv.Itoa(i-i%3) // runs of up to three share a tag
		satisfyNow(a, core.ReqID(i), tag)
		ref.insert(core.ReqID(i), tag)
		checkAgainstScan(t, a, ref, tag, core.ReqID(i))
		old := 1 + rng.Intn(i)
		checkAgainstScan(t, a, ref, "t"+strconv.Itoa(old), core.ReqID(old))
	}
}

// TestChainByTagResolvesBlockerTags: the trace join returns the blockers' own
// tags with the chain, from the one locked lookup.
func TestChainByTagResolvesBlockerTags(t *testing.T) {
	a := NewAttributor(NewMetrics(), 4)
	rsm := core.NewRSM(core.NewSpecBuilder(1).Build(), core.Options{})
	rsm.SetObserver(NewPipeline(Sinks{Attribution: a}))
	w, err := rsm.Issue(1, nil, []core.ResourceID{0}, "trace-w")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rsm.Issue(2, []core.ResourceID{0}, nil, "trace-r")
	if err != nil {
		t.Fatal(err)
	}
	if err := rsm.Complete(5, w); err != nil {
		t.Fatal(err)
	}
	c, ok := a.ChainByTag("trace-r")
	if !ok || c.Req != r {
		t.Fatalf("ChainByTag(trace-r) = %+v, %v; want req %d", c, ok, r)
	}
	want := map[uint64]string{uint64(w): "trace-w"}
	if !reflect.DeepEqual(c.BlockerTags, want) {
		t.Errorf("chain BlockerTags = %v, want %v", c.BlockerTags, want)
	}
	if got := a.BlockerTags(c); !reflect.DeepEqual(got, want) {
		t.Errorf("BlockerTags(chain) = %v, want %v", got, want)
	}
	if c, _ := a.Chain(r); c.BlockerTags != nil {
		t.Errorf("Chain must not resolve blocker tags, got %v", c.BlockerTags)
	}
}

// BenchmarkChainByTag prices the trace join on a nearly empty and on a full
// ring: a hit on the oldest retained chain (the linear scan's worst case) and
// a miss (the common case — a traced acquire that took a fast path). Both must
// be flat in ring occupancy, and a miss must not allocate.
func BenchmarkChainByTag(b *testing.B) {
	for _, fill := range []int{64, attrRecentCap} {
		a := NewAttributor(NewMetrics(), 10)
		for i := 1; i <= fill; i++ {
			satisfyNow(a, core.ReqID(i), "trace-"+strconv.Itoa(i))
		}
		for _, bc := range []struct{ name, tag string }{{"hit", "trace-1"}, {"miss", "trace-0"}} {
			b.Run("ring="+strconv.Itoa(fill)+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := a.ChainByTag(bc.tag); ok != (bc.name == "hit") {
						b.Fatalf("ChainByTag(%s) ok=%v", bc.tag, ok)
					}
				}
			})
		}
	}
}
