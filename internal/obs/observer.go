package obs

import (
	"fmt"

	"github.com/rtsync/rwrnlp/internal/core"
)

// Metric names recorded by ProtocolObserver. Counter units are events;
// histogram units are the producing plane's time unit (simulated nanoseconds
// in the simulator, logical protocol ticks in the runtime lock), except
// queue_depth which counts requests.
const (
	MIssued              = "protocol_issued"
	MEntitled            = "protocol_entitled"
	MSatisfied           = "protocol_satisfied"
	MCompleted           = "protocol_completed"
	MCanceled            = "protocol_canceled"
	MImmediate           = "protocol_immediate_satisfactions"
	MIncGrants           = "protocol_incremental_grants"
	MPlaceholdersRemoved = "protocol_placeholders_removed"
	MReadSegmentsDone    = "protocol_read_segments_done"
	MInflight            = "protocol_inflight"
	MHolders             = "protocol_holders"
	MAcqDelayRead        = "acq_delay_read"
	MAcqDelayWrite       = "acq_delay_write"
	MAcqDelayIncremental = "acq_delay_incremental"
	MEntitlementWait     = "entitlement_wait"
	MCSLengthRead        = "cs_length_read"
	MCSLengthWrite       = "cs_length_write"
	MQueueDepth          = "queue_depth"

	// Wall-clock histograms recorded by the runtime lock (rwrnlp) directly
	// on its acquisition path, in nanoseconds — the protocol event stream
	// there carries only logical ticks.
	MWallAcqReadNS  = "wall_acquire_read_ns"
	MWallAcqWriteNS = "wall_acquire_write_ns"
	MWallBlockNS    = "wall_block_ns"
	MWallCSNS       = "wall_cs_ns"

	// Per-shard instruments recorded by the runtime lock's component shards;
	// instance names carry a {shard=i} label via ShardMetric. The counters
	// count acquisition/release attempts routed to the shard, mutex-
	// contended acquisitions, and acquisitions executed by another holder
	// via the combining stack; shard_combine_wait_ns is the wall-clock
	// publish-to-execute latency of contended acquisitions.
	MShardAcquires      = "shard_acquires"
	MShardReleases      = "shard_releases"
	MShardContended     = "shard_contended"
	MShardCombined      = "shard_combined"
	MShardCombineWaitNS = "shard_combine_wait_ns"

	// MSlowPath counts multi-component acquisitions served by the runtime
	// lock's ordered slow path (undeclared footprints only).
	MSlowPath = "protocol_slow_path"

	// Reader fast-path counters (shard-labeled via ShardMetric): hits are
	// all-read acquisitions satisfied with atomic stores only, bypassing the
	// shard mutex and RSM; misses are fast-eligible acquisitions that fell
	// back to the RSM (writer present, slots full, or path revoked);
	// revocations count transitions into the revoked state after a streak
	// of gate-closed misses; migrations count in-flight fast readers
	// materialized into the RSM as surrogate read requests by an entering
	// writer. A fast-path acquisition appears in the protocol_* series only
	// if it was migrated — otherwise the RSM never sees it.
	MFastPathHit      = "fastpath_hit"
	MFastPathMiss     = "fastpath_miss"
	MFastPathRevoked  = "fastpath_revoked"
	MFastPathMigrated = "fastpath_migrated"

	// Writer fast-path counters (shard-labeled via ShardMetric): hits are
	// write-capable acquisitions that claimed their whole component with one
	// CAS on the shard's writer word, bypassing the shard mutex and RSM;
	// misses fell back to the RSM (component busy, word held, or plane
	// revoked); revocations count transitions into the revoked state after a
	// streak of busy misses; migrations count fast writers materialized into
	// the RSM as surrogate write requests by a contending request; storms
	// count revocations that followed a re-enable within twice the revocation
	// budget — sustained revoke/re-enable cycling, the signature of the
	// tail-latency cliffs the rnlptop panel watches for.
	MFastWriteHit      = "fastpath_write_hit"
	MFastWriteMiss     = "fastpath_write_miss"
	MFastWriteRevoked  = "fastpath_write_revoked"
	MFastWriteMigrated = "fastpath_write_migrated"
	MFastWriteStorm    = "fastpath_write_storm"

	// Parking counters (shard-labeled via ShardMetric), classifying every
	// signal the shard delivers to a waiter: wakeups woke a parked
	// goroutine with one token (exactly one runtime wakeup per entitled
	// grant); direct signals landed during the waiter's pre-park spin
	// burst, so the owner never blocked at all; spurious signals found the
	// waiter already cancelled and were dropped. For a workload with no
	// cancellations, park_wakeups + park_direct equals the number of
	// requests that blocked (satisfied − immediately-satisfied).
	MParkWakeups  = "park_wakeups"
	MParkDirect   = "park_direct"
	MParkSpurious = "park_spurious"
)

// ShardMetric derives the shard-labeled instance name of a per-shard metric,
// e.g. ShardMetric(MShardAcquires, 2) = "shard_acquires{shard=2}".
func ShardMetric(name string, shard int) string {
	return fmt.Sprintf("%s{shard=%d}", name, shard)
}

// ProtocolObserver is the pipeline's metrics sink: it turns decoded
// transitions into lifecycle counters, in-flight/holder gauges, and
// delay/length histograms. It keeps no request state of its own — every
// instrument is resolved once at construction, so the event path never takes
// the registry lock — and may serve any number of pipelines recording into
// the same registry. Its pipelines must see each request's full lifecycle
// (attach them before issuing requests).
type ProtocolObserver struct {
	issued, entitledC, satisfiedC, completedC, canceledC *Counter
	immediate, incGrants, phRemoved, segsDone            *Counter
	inflight, holders                                    *Gauge
	acqRead, acqWrite, acqInc, entWait                   *Histogram
	csRead, csWrite, queueDepth                          *Histogram
}

// NewProtocolObserver creates a metrics sink recording into m.
func NewProtocolObserver(m *Metrics) *ProtocolObserver {
	return &ProtocolObserver{
		issued:     m.Counter(MIssued),
		entitledC:  m.Counter(MEntitled),
		satisfiedC: m.Counter(MSatisfied),
		completedC: m.Counter(MCompleted),
		canceledC:  m.Counter(MCanceled),
		immediate:  m.Counter(MImmediate),
		incGrants:  m.Counter(MIncGrants),
		phRemoved:  m.Counter(MPlaceholdersRemoved),
		segsDone:   m.Counter(MReadSegmentsDone),
		inflight:   m.Gauge(MInflight),
		holders:    m.Gauge(MHolders),
		acqRead:    m.Histogram(MAcqDelayRead),
		acqWrite:   m.Histogram(MAcqDelayWrite),
		acqInc:     m.Histogram(MAcqDelayIncremental),
		entWait:    m.Histogram(MEntitlementWait),
		csRead:     m.Histogram(MCSLengthRead),
		csWrite:    m.Histogram(MCSLengthWrite),
		queueDepth: m.Histogram(MQueueDepth),
	}
}

func (po *ProtocolObserver) consume(t *transition) {
	r := t.state
	switch t.Type {
	case core.EvIssued:
		po.issued.Inc()
		po.inflight.Add(1)
		// Depth of the stream's waiting pool at each arrival, satisfied
		// holders included: "how crowded was the system when I showed up".
		po.queueDepth.Observe(int64(t.inflight))

	case core.EvEntitled:
		po.entitledC.Inc()

	case core.EvSatisfied:
		po.satisfiedC.Inc()
		if r == nil {
			return
		}
		if t.delay == 0 {
			po.immediate.Inc()
		}
		// Acquisition-delay samples carry an exemplar: the request, its
		// trace tag, and the flight sequence of this very event, linking a
		// scraped tail bucket to the flight window that produced it.
		var trace string
		if t.Tag != nil {
			trace = tagString(t.Tag)
		}
		h := po.acqWrite
		switch {
		case r.incremental:
			// Not an acquisition delay in the Theorem 1/2 sense (see
			// transition.delay), so it gets its own histogram.
			h = po.acqInc
		case r.kind == core.KindRead:
			h = po.acqRead
		}
		h.ObserveTraced(t.delay, int64(t.Req), t.seq, trace)
		if t.entitleWait >= 0 {
			po.entWait.Observe(t.entitleWait)
		}
		po.holders.Add(1)

	case core.EvGranted:
		po.incGrants.Inc()

	case core.EvCompleted, core.EvReadSegmentDone:
		// A finished read segment is a completed read critical section.
		if t.Type == core.EvCompleted {
			po.completedC.Inc()
		} else {
			po.segsDone.Inc()
		}
		if t.cs >= 0 {
			if r.kind == core.KindRead {
				po.csRead.Observe(t.cs)
			} else {
				po.csWrite.Observe(t.cs)
			}
			po.holders.Add(-1)
		}
		po.inflight.Add(-1)

	case core.EvCanceled:
		po.canceledC.Inc()
		po.inflight.Add(-1)

	case core.EvPlaceholdersRemoved:
		po.phRemoved.Inc()
	}
}
