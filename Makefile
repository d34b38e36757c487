# Standard targets for the rwrnlp reproduction repository.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-check fuzz fuzz-smoke mccheck experiments schedstudy examples fmt vet staticcheck api api-check ci obs-race telemetry-race park-race flight-overhead hdr-overhead wfast-overhead slots-overhead park-overhead net-overhead trace-overhead bench-harness-test rnlpd-integration cluster-integration soak clean

all: build vet test

# What .github/workflows/ci.yml runs: full build/vet/test, the exported-API
# surface gate, the race detector across the whole module, a fuzz smoke pass
# on the RSM invocation fuzzer and the wire decoder, and a bounded-depth
# model-checking gate
# (every mc preset, both placeholder modes; non-zero exit on any violation).
# staticcheck is skipped gracefully on machines where it is not installed
# (it cannot be fetched in hermetic environments) but is mandatory when CI=1
# — the workflow installs a pinned version, so a missing binary there is a
# pipeline bug, not an environment quirk.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) api-check
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(MAKE) obs-race
	$(MAKE) telemetry-race
	$(MAKE) park-race
	$(MAKE) fuzz-smoke
	$(GO) run ./cmd/mccheck -stats -depth 14 -o mccheck-ci-replay.txt ci

# Parking state machine under the race detector, un-shortened: the waiter
# CAS transitions, the batched-release wakeup accounting (one wake per
# entitled grant), the signal-vs-ctx-cancel storm in both parking modes, and
# the signal-to-wake latency bound.
park-race:
	$(GO) test -race -count=1 -run 'TestWaiterStateMachine|TestParkWakeupAccounting|TestParkSignalCancelStorm|TestParkSignalToWakeLatency|TestParkChanAblationMode' .

# Observability plane under the race detector, explicitly and un-shortened:
# attribution, flight recorder, watchdog, Prometheus exposition, and the
# root-package regression tests that drive the sharded lock with the fast
# path on while scraping the debug endpoints.
obs-race:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 -run 'TestShardedFastPathObservabilityConsistency|TestDebugEndpointsConcurrentWithWorkload|TestFastPathHitInvisibleToObservabilityPlane' .

# Continuous-telemetry loop under the race detector: the end-to-end exemplar
# resolution test (workload → OpenMetrics scrape → flight_seq → blocking
# chain), concurrent timeseries/OpenMetrics/attr scrapes against a live
# workload, and the rnlptop cockpit smoke test against its in-process demo.
telemetry-race:
	$(GO) test -race -count=1 -run 'TestExemplarLoopEndToEnd|TestTelemetryEndpointsConcurrentWithWorkload' .
	$(GO) test -race -count=1 ./cmd/rnlptop

# Flight-recorder overhead gate: measure the BenchmarkAcquire ablation pair
# in one run and fail if flight=on costs more than FLIGHT_THRESHOLD percent
# over flight=off. (The flight=off variant IS the PR 4 baseline shape; the
# disabled hook is a nil check, so off-vs-baseline drift shows up in the
# regular bench-check gate instead.) -count=5 and benchjson's min-merge make
# each side the minimum of five interleaved runs — single-run pairs on shared
# runners have shown inversions larger than the real effect (see the pair
# protocol note atop cmd/benchjson).
FLIGHT_THRESHOLD ?= 100
flight-overhead:
	$(GO) test -bench 'BenchmarkAcquire/flight' -benchtime=0.3s -count=5 -run='^$$' . | $(GO) run ./cmd/benchjson -o flight_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(FLIGHT_THRESHOLD) flight_pair.json 'BenchmarkAcquire/flight=off' 'BenchmarkAcquire/flight=on'
	@rm -f flight_pair.json

# HDR-histogram overhead gate: same-run ablation of the metrics plane (HDR
# log-linear histograms + sharded counters on every protocol event) against
# the uninstrumented write round trip. The threshold prices the whole metrics
# plane, not just the histogram delta, hence wider than flight's.
HDR_THRESHOLD ?= 150
hdr-overhead:
	$(GO) test -bench 'BenchmarkAcquire/hdr' -benchtime=0.3s -count=5 -run='^$$' . | $(GO) run ./cmd/benchjson -o hdr_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(HDR_THRESHOLD) hdr_pair.json 'BenchmarkAcquire/hdr=off' 'BenchmarkAcquire/hdr=on'
	@rm -f hdr_pair.json

# Writer fast-path gate (PR 8 acceptance): same-run ablation of the writer
# plane on the uncontended write round trip. The threshold is NEGATIVE — the
# pair fails unless wfast=on is at least 60% FASTER than wfast=off, i.e. the
# single-CAS claim must land uncontended writes within single-digit
# multiples of the BRAVO read instead of the ~1.3us RSM slow path.
WFAST_THRESHOLD ?= -60
wfast-overhead:
	$(GO) test -bench 'BenchmarkUncontendedWriter/wfast' -benchtime=0.3s -count=5 -run='^$$' . | $(GO) run ./cmd/benchjson -o wfast_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(WFAST_THRESHOLD) wfast_pair.json 'BenchmarkUncontendedWriter/wfast=off' 'BenchmarkUncontendedWriter/wfast=on'
	@rm -f wfast_pair.json

# Per-P slot striping gate: parallel same-component readers with the
# visible-readers table striped per-P vs the shared global sequence. perP
# removes the last contended cache line from the reader fast path, so it
# must never cost more than SLOTS_THRESHOLD percent over shared (on
# few-core runners the two are within noise; on many-core runners perP
# should win outright).
SLOTS_THRESHOLD ?= 15
slots-overhead:
	$(GO) test -bench 'BenchmarkReadScaling/slots' -benchtime=0.3s -count=5 -run='^$$' . | $(GO) run ./cmd/benchjson -o slots_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(SLOTS_THRESHOLD) slots_pair.json 'BenchmarkReadScaling/slots=shared' 'BenchmarkReadScaling/slots=perP'
	@rm -f slots_pair.json

# Contended-parking gate (PR 9 acceptance): the park={chan,sema} ablation
# pair on the contended 8-goroutine acquire loop. The threshold is NEGATIVE
# — the pair fails unless the futex-style semaphore parker is strictly
# faster than the legacy chan-close waiter under contention (direct signals
# skip the channel round trip entirely; waiter pooling removes the
# waiter+channel allocation per contended op, which close-signaled channels
# structurally cannot do). -3 rides out runner noise while still requiring
# a real win; the reference 1-core runner measures ~-15..-35% on quiet
# windows. Sampling is INTERLEAVED: five separate go test invocations,
# min-merged by benchjson, so a co-tenant load spike that lands on one
# invocation's chan or sema window cannot poison that side's minimum — a
# single -count=10 run measures all chan samples back-to-back and then all
# sema samples, which turns any minutes-scale load shift into a phantom
# pair delta.
PARK_THRESHOLD ?= -3
PARK_BENCH = $(GO) test -bench 'BenchmarkContendedAcquire/park=(chan|sema)/8g$$' -benchtime=0.3s -count=2 -run='^$$' .
park-overhead:
	( $(PARK_BENCH) && $(PARK_BENCH) && $(PARK_BENCH) && $(PARK_BENCH) && $(PARK_BENCH) ) | $(GO) run ./cmd/benchjson -o park_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(PARK_THRESHOLD) park_pair.json 'BenchmarkContendedAcquire/park=chan/8g' 'BenchmarkContendedAcquire/park=sema/8g'
	@rm -f park_pair.json

# Distributed-tracing overhead gate (PR 10 acceptance): the contended
# 8-goroutine acquire loop with no trace tag on the context (trace=off)
# versus every request carrying one (trace=on). The on side pays one context
# lookup per acquire plus the tag copy onto each shard event; flight records
# and exemplars carry the tag in fields that exist either way, so the pair
# prices exactly the tagging delta. The reference runner measures ~1%; the
# threshold leaves headroom for shared-runner noise while still catching a
# structural regression (e.g. a per-event allocation for the tag).
TRACE_THRESHOLD ?= 15
trace-overhead:
	$(GO) test -bench 'BenchmarkTracedAcquire/trace' -benchtime=0.3s -count=5 -run='^$$' . | $(GO) run ./cmd/benchjson -o trace_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(TRACE_THRESHOLD) trace_pair.json 'BenchmarkTracedAcquire/trace=off' 'BenchmarkTracedAcquire/trace=on'
	@rm -f trace_pair.json

# Network-tier overhead gate: the rnlpd service plane driven directly
# in-process (net=off) versus through the client package over loopback HTTP
# (net=on). Both sides run identical session/lease/fencing bookkeeping, so
# the pair prices exactly the JSON codec + HTTP round trip. That cost is
# structurally large — ~80x in-process on the reference runner, and the ratio
# doubled when PR 12 halved its denominator (net=off 2.5 -> 1.25 us) — so
# the threshold is not a "small overhead" bound like flight's: it pins the
# tier at no more than ~120x in-process, which catches step regressions such
# as a second blocking round trip per acquire (~2x the RTT) or losing HTTP
# keep-alive (a TCP handshake per request), while riding out loopback noise.
NET_THRESHOLD ?= 12000
# The same run bounds a third leg, net=on,obs=rnlpd: the hop with the
# observability options cmd/rnlpd switches on and a full attribution ring —
# the configuration the daemon runs in and, until this leg, no pair priced.
# Observability rides the shard event path, which a round trip dwarfs, so the
# leg must stay within NET_OBS_THRESHOLD percent of net=on; what the bound
# catches is request-path work that grows with retained history (the trace →
# chain join once scanned the whole ring per acquire: 2x net=on on this leg).
# Sampling is interleaved like park-overhead's — five invocations of one
# sample per leg, min-merged — because loopback round trips drift by tens of
# percent over the seconds a -count=5 block of one leg takes.
NET_OBS_THRESHOLD ?= 30
NET_BENCH = $(GO) test -bench 'BenchmarkAcquireRelease/net' -benchtime=0.3s -count=1 -run='^$$' ./internal/service
net-overhead:
	( $(NET_BENCH) && $(NET_BENCH) && $(NET_BENCH) && $(NET_BENCH) && $(NET_BENCH) ) | $(GO) run ./cmd/benchjson -o net_pair.json
	$(GO) run ./cmd/benchjson pair -threshold $(NET_THRESHOLD) net_pair.json 'BenchmarkAcquireRelease/net=off' 'BenchmarkAcquireRelease/net=on'
	$(GO) run ./cmd/benchjson pair -threshold $(NET_OBS_THRESHOLD) net_pair.json 'BenchmarkAcquireRelease/net=on' 'BenchmarkAcquireRelease/net=on,obs=rnlpd'
	@rm -f net_pair.json

# The rnlpbench harness (benchmark/, BENCHMARK.json) is a module of its own
# that imports this one's internals, so the root build and tests never
# compile it: vet it and run its tests here, or a root-package change that
# breaks it is found by the acceptance run instead of by CI.
bench-harness-test:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Service-tier integration gate: build the real rnlpd binary, boot it on an
# ephemeral port, run a multi-client smoke workload under -race, SIGKILL one
# client mid-hold and prove its footprint auto-releases within the lease TTL
# with strictly newer fencing tokens, then scrape every debug endpoint.
rnlpd-integration:
	$(GO) test -race -count=1 -timeout 5m -run TestRNLPDIntegration ./internal/service -v

# Cluster-tracing integration gate (PR 10 acceptance): boot a 3-node
# in-process cluster, drive a cross-node acquisition blocked by a writer on
# the remote node, and prove the single stitched trace (one trace ID, queue +
# wire + admission + wait + hold spans, monotone hops, the blocking writer
# named by its trace ID), the OpenMetrics exemplar → flight-dump resolution,
# and the /debug/rnlp/cluster health fan-out.
cluster-integration:
	$(GO) test -race -count=1 -timeout 5m -run TestClusterTraceIntegration ./internal/service -v

# Watchdog-armed stress soak (nightly): drive the sharded lock with the
# stall watchdog enabled for RNLP_SOAK (default 5m) and fail on any firing.
RNLP_SOAK ?= 5m
soak:
	RNLP_SOAK=$(RNLP_SOAK) $(GO) test -race -count=1 -timeout 30m -run TestWatchdogStressSoak -v .

# Run staticcheck when available. Locally a missing binary is a notice and a
# skip (hermetic builds stay green); under CI=1 it is an error — the workflow
# installs a pinned version, so absence means the pipeline is broken and the
# lint gate would silently stop gating.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck: required in CI but not on PATH (workflow must install it)" >&2; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Re-record the exported API baseline — root package plus the rnlpd client
# package (do this in the same commit as an intentional API change so the
# delta is visible in review).
api:
	$(GO) run ./cmd/apicheck -dir . -dir client -o API.txt

# Fail if the exported surface of any pinned public package drifted from
# API.txt.
api-check:
	$(GO) run ./cmd/apicheck -dir . -dir client -check API.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable performance snapshot: benchmark name → ns/op, B/op,
# allocs/op, written to BENCH_<date>.json for cross-commit comparison.
bench-json:
	$(GO) test -bench=. -benchmem -run=^$$ ./... | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json

# Perf-regression gate: re-run the benchmark suite (short benchtime) and
# compare against the newest committed BENCH_*.json snapshot. Fails if any
# benchmark present in both slowed down by more than BENCH_THRESHOLD percent
# ns/op; benchmarks that exist on only one side are reported but never fail
# the gate. Override the baseline or threshold per-invocation:
#   make bench-check BENCH_BASELINE=BENCH_20260101.json BENCH_THRESHOLD=25
# Set BENCH_KEEP=1 to leave bench_current.json behind (CI uploads it as an
# artifact for offline comparison).
BENCH_BASELINE ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
BENCH_THRESHOLD ?= 15
bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-check: no BENCH_*.json baseline in repo root"; exit 1; }
	@echo "bench-check: baseline $(BENCH_BASELINE), threshold $(BENCH_THRESHOLD)%"
	$(GO) test -bench=. -benchmem -benchtime=0.3s -count=3 -run='^$$' ./... | $(GO) run ./cmd/benchjson -o bench_current.json
	$(GO) run ./cmd/benchjson compare -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) bench_current.json
	@if [ -z "$(BENCH_KEEP)" ]; then rm -f bench_current.json; fi

fuzz:
	$(GO) test -fuzz=FuzzRSMInvocations -fuzztime 60s ./internal/core

fuzz-smoke:
	$(GO) test -fuzz=FuzzRSMInvocations -fuzztime=15s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAcquireRequest -fuzztime=15s ./internal/service

# Exhaustive model check of every preset scope (unbounded depth).
mccheck:
	$(GO) run ./cmd/mccheck -stats ci

# Regenerate every recorded experiment artifact.
experiments:
	$(GO) run ./cmd/experiments -seeds 30 -horizon 1000000000 all > results_experiments.md
	$(GO) run ./cmd/schedstudy -m 8 -sets 200 > results_schedstudy.md
	$(GO) run ./cmd/schedstudy -m 8 -sets 200 -read-ratio 0.3 >> results_schedstudy.md
	$(GO) run ./cmd/schedstudy -m 8 -sets 200 -resources 24 -nested 0.1 >> results_schedstudy.md

schedstudy:
	$(GO) run ./cmd/schedstudy

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stm
	$(GO) run ./examples/sensorfusion
	$(GO) run ./examples/airtraffic
	$(GO) run ./examples/rtdb

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Final artifacts referenced by the reproduction protocol.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
