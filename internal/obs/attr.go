package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/rtsync/rwrnlp/internal/core"
)

// Delay components of the causal attribution (see IMPLEMENTATION.md,
// "Observability: attribution, flight recording, watchdog"). Each satisfied
// request's acquisition delay is decomposed exactly — the parts sum to the
// measured wait — into the paper's blocking causes:
//
//   - a reader's pre-entitlement span is time conceded to entitled writers
//     (Def. 3; Lemma 3 bounds it by L^w_max via the writer it waits behind);
//   - a reader's entitled span is time waiting out the conflicting write
//     holder (Rule R2; Lemma 2: at most one writer per resource);
//   - a writer's pre-entitlement span is queue wait — earlier-timestamped
//     writers ahead of it in some write queue, or entitled readers it must
//     let pass (Def. 4; Lemmas 4–5);
//   - a writer's entitled span is the current read phase it must outwait
//     (Rule W2; Lemmas 6–7 bound the satisfied holders that may block it).
//
// Two further components exist only in the runtime plane and are recorded by
// the Protocol's acquisition path in wall-clock nanoseconds: the
// cross-component slow path (undeclared multi-component footprints acquired
// piecewise, outside any per-component bound) and fast-path revocation
// (fast-eligible reads forced through the RSM while the BRAVO path is
// revoked).
const (
	AttrReaderBehindWriter = "attr_reader_behind_entitled_writer"
	AttrReaderEntitledWait = "attr_reader_entitled_wait"
	AttrWriterQueueWait    = "attr_writer_queue_wait"
	AttrWriterReadPhase    = "attr_writer_blocked_by_read_phase"
	AttrImmediate          = "attr_immediate" // counter: zero-delay satisfactions
	AttrSlowPathNS         = "attr_slow_path_ns"
	AttrFastRevocationNS   = "attr_fastpath_revocation_ns"
)

// DelayPart is one component of a request's acquisition-delay decomposition.
type DelayPart struct {
	Component string `json:"component"`
	Span      int64  `json:"span"`
}

// BlockChain is the causal record of one satisfied request: its delay
// decomposition plus the wait edges (blocker IDs) captured at issuance and at
// entitlement. The parts always sum to Delay.
type BlockChain struct {
	Req             core.ReqID   `json:"req"`
	Kind            core.Kind    `json:"kind"`
	Tag             string       `json:"tag,omitempty"`
	IssueT          core.Time    `json:"issue_t"`
	SatisfyT        core.Time    `json:"satisfy_t"`
	Delay           int64        `json:"delay"`
	Parts           []DelayPart  `json:"parts"`
	IssueBlockers   []core.ReqID `json:"issue_blockers,omitempty"`
	EntitleBlockers []core.ReqID `json:"entitle_blockers,omitempty"`

	// BlockerTags is set only on chains returned by ChainByTag: the tags of
	// the wait-edge requests above, as Attributor.BlockerTags resolves them,
	// read under the lock of that one lookup. Not serialized.
	BlockerTags map[uint64]string `json:"-"`
}

func (c BlockChain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d (%s)", c.Req, c.Kind)
	if c.Tag != "" {
		fmt.Fprintf(&b, " tag=%s", c.Tag)
	}
	fmt.Fprintf(&b, " delay=%d", c.Delay)
	if len(c.Parts) > 0 {
		b.WriteString(" =")
		for i, p := range c.Parts {
			if i > 0 {
				b.WriteString(" +")
			}
			fmt.Fprintf(&b, " %s:%d", strings.TrimPrefix(p.Component, "attr_"), p.Span)
		}
	}
	return b.String()
}

// attrRecentCap bounds how many completed chains the attributor retains for
// transitive chain expansion in reports and for the trace join (FIFO
// eviction).
const attrRecentCap = 4096

// Attributor is the pipeline's causal-attribution sink: from each satisfied
// request's decoded state — including the Blockers wait edges of its
// EvIssued/EvEntitled — it builds per-component delay histograms (recorded
// into a Metrics registry) and a top-K list of the worst blocking chains,
// each naming the exact requests waited behind. Its pipelines must see full
// request lifecycles; attach them before issuing requests.
//
// The write half of an upgradeable pair is attributed per wait (see
// reqState.waitStart); incremental requests are tallied but not decomposed,
// since their issue-to-satisfaction span includes hold phases between grants
// (Sec. 3.7).
//
// The attributor keeps only the chains it has built and may serve any number
// of pipelines; mu guards the chains and is taken once per satisfied request,
// when its chain is stored, and by the read side.
type Attributor struct {
	readBehind, readEnt, wQueue, wPhase *Histogram
	immediate                           *Counter

	mu sync.Mutex

	// ring holds the retained chains in satisfaction order: it grows to
	// ringCap entries (attrRecentCap; tests shrink it), then head is the
	// oldest chain and the next insert overwrites it. recent and byTag index the newest retained chain of a
	// request ID and of a non-empty tag, so Chain and ChainByTag cost one map
	// lookup however full the ring is. Eviction is FIFO, so when the chain
	// an index entry points at leaves the ring no older chain with that key
	// can remain, and the entry is dropped.
	ring    []*BlockChain
	head    int
	ringCap int
	recent  map[core.ReqID]*BlockChain
	byTag   map[string]*BlockChain

	top []*BlockChain
	k   int

	checked    int64
	skippedInc int64
}

// NewAttributor creates an attributor recording component histograms into m
// and keeping the topK worst blocking chains (topK <= 0 means 10).
func NewAttributor(m *Metrics, topK int) *Attributor {
	if topK <= 0 {
		topK = 10
	}
	return &Attributor{
		readBehind: m.Histogram(AttrReaderBehindWriter),
		readEnt:    m.Histogram(AttrReaderEntitledWait),
		wQueue:     m.Histogram(AttrWriterQueueWait),
		wPhase:     m.Histogram(AttrWriterReadPhase),
		immediate:  m.Counter(AttrImmediate),
		ringCap:    attrRecentCap,
		recent:     map[core.ReqID]*BlockChain{},
		byTag:      map[string]*BlockChain{},
		k:          topK,
	}
}

// consume decomposes a just-satisfied request's delay and records its
// chain.
func (a *Attributor) consume(t *transition) {
	p := t.state
	if t.Type != core.EvSatisfied || p == nil {
		return
	}
	if p.incremental {
		a.mu.Lock()
		a.skippedInc++
		a.mu.Unlock()
		return
	}
	delay := max(t.delay, 0)
	c := &BlockChain{
		Req:             t.Req,
		Kind:            p.kind,
		IssueT:          p.waitStart,
		SatisfyT:        t.T,
		Delay:           delay,
		IssueBlockers:   p.issueBlockers,
		EntitleBlockers: p.entitleBlockers,
	}
	if p.tag != nil {
		c.Tag = tagString(p.tag)
	}

	if delay == 0 {
		a.immediate.Inc()
	} else {
		// Split the wait at the entitlement instant, clamped into the wait
		// window so the parts sum to delay exactly even when the wait was
		// restarted after entitlement (upgradeable write halves).
		eT := t.T
		if p.entitled {
			eT = min(max(p.entitleT, p.waitStart), t.T)
		}
		// A write satisfied from Waiting skipped entitlement only on the
		// immediate path; a delayed one always passed through Def. 4 (Props.
		// E7/E9). Were it not so, eT = T charges the whole span as queue wait.
		pre, ent := int64(eT-p.waitStart), int64(t.T-eT)
		if p.kind == core.KindRead {
			if pre > 0 {
				c.Parts = append(c.Parts, DelayPart{AttrReaderBehindWriter, pre})
				a.readBehind.Observe(pre)
			}
			if ent > 0 {
				c.Parts = append(c.Parts, DelayPart{AttrReaderEntitledWait, ent})
				a.readEnt.Observe(ent)
			}
		} else {
			if pre > 0 {
				c.Parts = append(c.Parts, DelayPart{AttrWriterQueueWait, pre})
				a.wQueue.Observe(pre)
			}
			if ent > 0 {
				c.Parts = append(c.Parts, DelayPart{AttrWriterReadPhase, ent})
				a.wPhase.Observe(ent)
			}
		}
	}

	a.mu.Lock()
	a.checked++
	a.remember(c)
	a.rank(c)
	a.mu.Unlock()
}

// remember stores the chain for transitive expansion and the trace join,
// evicting FIFO past the cap. Caller holds a.mu.
func (a *Attributor) remember(c *BlockChain) {
	if len(a.ring) < a.ringCap {
		a.ring = append(a.ring, c)
	} else {
		old := a.ring[a.head]
		if a.recent[old.Req] == old {
			delete(a.recent, old.Req)
		}
		if old.Tag != "" && a.byTag[old.Tag] == old {
			delete(a.byTag, old.Tag)
		}
		a.ring[a.head] = c
		a.head = (a.head + 1) % a.ringCap
	}
	a.recent[c.Req] = c
	if c.Tag != "" {
		a.byTag[c.Tag] = c
	}
}

// rank inserts the chain into the top-K list (descending delay). Caller
// holds a.mu.
func (a *Attributor) rank(c *BlockChain) {
	if len(a.top) == a.k && c.Delay <= a.top[len(a.top)-1].Delay {
		return
	}
	a.top = append(a.top, c)
	sort.SliceStable(a.top, func(i, j int) bool { return a.top[i].Delay > a.top[j].Delay })
	if len(a.top) > a.k {
		a.top = a.top[:a.k]
	}
}

// Chain returns the recorded blocking chain of a satisfied request, if still
// retained.
func (a *Attributor) Chain(id core.ReqID) (BlockChain, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.recent[id]
	if !ok {
		return BlockChain{}, false
	}
	return *c, true
}

// ChainByTag returns the most recently satisfied retained chain whose Tag
// matches, with BlockerTags resolved under the same lock. This is the server
// tier's join from a distributed trace ID to the shard-level delay
// decomposition of the request that carried it; hit or miss, it costs one
// index lookup.
func (a *Attributor) ChainByTag(tag string) (BlockChain, bool) {
	if tag == "" {
		return BlockChain{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.byTag[tag]
	if c == nil {
		return BlockChain{}, false
	}
	out := *c
	out.BlockerTags = a.blockerTags(c)
	return out, true
}

// BlockerTags resolves the tags of a chain's blockers: reqID → tag for every
// request on the chain's issue/entitle wait edges whose own chain is still
// retained and carried a tag. Blockers that were untagged, fast-path hits, or
// already evicted are absent.
func (a *Attributor) BlockerTags(c BlockChain) map[uint64]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.blockerTags(&c)
}

// blockerTags is BlockerTags on a retained or copied chain. Caller holds
// a.mu.
func (a *Attributor) blockerTags(c *BlockChain) map[uint64]string {
	var out map[uint64]string
	for _, ids := range [2][]core.ReqID{c.IssueBlockers, c.EntitleBlockers} {
		for _, id := range ids {
			if bc := a.recent[id]; bc != nil && bc.Tag != "" {
				if out == nil {
					out = make(map[uint64]string)
				}
				out[uint64(id)] = bc.Tag
			}
		}
	}
	return out
}

// AttributionReport is the attributor's summary: totals per delay component
// and the worst blocking chains observed.
type AttributionReport struct {
	Checked            int64                `json:"checked"`
	SkippedIncremental int64                `json:"skipped_incremental"`
	Immediate          int64                `json:"immediate"`
	Components         map[string]HistStats `json:"components"`
	Top                []BlockChain         `json:"top"`

	// chains resolves blocker IDs for the rendered expansion.
	chains map[core.ReqID]*BlockChain
}

// Report snapshots the attribution state. The attributor may keep observing
// afterwards.
func (a *Attributor) Report() AttributionReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := AttributionReport{
		Checked:            a.checked,
		SkippedIncremental: a.skippedInc,
		Immediate:          a.immediate.Value(),
		Components: map[string]HistStats{
			AttrReaderBehindWriter: a.readBehind.Stats(),
			AttrReaderEntitledWait: a.readEnt.Stats(),
			AttrWriterQueueWait:    a.wQueue.Stats(),
			AttrWriterReadPhase:    a.wPhase.Stats(),
		},
		chains: make(map[core.ReqID]*BlockChain, len(a.recent)),
	}
	for _, c := range a.top {
		r.Top = append(r.Top, *c)
	}
	for id, c := range a.recent {
		r.chains[id] = c
	}
	return r
}

// maxChainDepth caps the transitive expansion of a blocking chain in the
// rendered report.
const maxChainDepth = 4

func (r AttributionReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution: checked=%d immediate=%d skipped-incremental=%d\n",
		r.Checked, r.Immediate, r.SkippedIncremental)
	names := make([]string, 0, len(r.Components))
	for n := range r.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.Components[n]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-36s n=%-6d mean=%.1f p95=%d max=%d\n", n, h.Count, h.Mean, h.P95, h.Max)
	}
	if len(r.Top) > 0 {
		fmt.Fprintf(&b, "top blocking chains (worst %d by delay):\n", len(r.Top))
		for i, c := range r.Top {
			fmt.Fprintf(&b, "  #%d %s\n", i+1, c)
			r.expand(&b, c, "     ", map[core.ReqID]bool{c.Req: true}, maxChainDepth)
		}
	}
	return b.String()
}

// expand renders the wait edges of one chain, following blockers through the
// retained chains up to depth levels (cycle-guarded: IDs are never revisited).
func (r AttributionReport) expand(b *strings.Builder, c BlockChain, indent string, seen map[core.ReqID]bool, depth int) {
	if depth == 0 {
		return
	}
	edges := []struct {
		label string
		ids   []core.ReqID
	}{
		{"issued behind", c.IssueBlockers},
		{"entitled behind", c.EntitleBlockers},
	}
	for _, e := range edges {
		if len(e.ids) == 0 {
			continue
		}
		fmt.Fprintf(b, "%s%s:", indent, e.label)
		for _, id := range e.ids {
			fmt.Fprintf(b, " %d", id)
		}
		b.WriteString("\n")
		for _, id := range e.ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			if bc, ok := r.chains[id]; ok {
				fmt.Fprintf(b, "%s└─ %s\n", indent, *bc)
				r.expand(b, *bc, indent+"   ", seen, depth-1)
			}
		}
	}
}
