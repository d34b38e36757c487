# Standard targets for the rwrnlp reproduction repository.

GO ?= go

.PHONY: all build test test-short race cover bench fuzz fuzz-smoke mccheck experiments schedstudy examples fmt vet staticcheck api api-check ci obs-race telemetry-race park-race alloc-guards check-run-lists pair-gates bench-harness-test rnlpd-integration cluster-integration soak outputs clean

all: build vet test

# What .github/workflows/ci.yml runs: full build/vet/test, the exported-API
# surface gate, the nested rnlpbench module's vet and tests, the race detector
# across the whole module, the allocation guards without it, the targeted race
# suites (and the check that every -run list still names tests), a fuzz smoke
# pass on the RSM invocation fuzzer and the wire decoder, and a bounded-depth
# model-checking gate (every mc preset, both placeholder modes; non-zero exit
# on any violation).
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
	$(MAKE) bench-harness-test
	$(GO) test -race -short ./...
	$(MAKE) alloc-guards
	$(MAKE) check-run-lists
	$(MAKE) obs-race
	$(MAKE) telemetry-race
	$(MAKE) park-race
	$(MAKE) fuzz-smoke
	$(GO) run ./cmd/mccheck -stats -depth 14 -o mccheck-ci-replay.txt ci

# Parking state machine under the race detector, un-shortened: the waiter
# CAS transitions, the batched-release wakeup accounting (one wake per
# entitled grant), the signal-vs-ctx-cancel storm, the signal-to-wake latency
# bound, and the request-lifecycle balance table (every blocking entry point
# through every exit path, 200 cancel-vs-signal races each).
park-race:
	$(GO) test -race -count=1 -run 'TestWaiterStateMachine|TestParkWakeupAccounting|TestLateTracerSeesWholeStream|TestParkSignalCancelStorm|TestParkSignalToWakeLatency|TestRequestLifecycleBalance' .

# The allocation guards, explicitly and without the race detector (whose
# runtime allocates, so they skip under it): a warmed-up RSM with no observer
# allocates nothing per invocation — idle, behind a queue, handing off — and
# neither does an uncontended acquire/release pair of the runtime lock on its
# slow or fast path. Someone who runs only the race legs still runs these.
alloc-guards:
	$(GO) test -count=1 -run 'TestAllocsIdlePair|TestAllocsPairBehindQueue|TestAllocsHandOff' ./internal/core
	$(GO) test -count=1 -run 'TestAllocsSlowPathPair|TestAllocsFastPathPair' .

# Observability plane under the race detector, explicitly and un-shortened:
# the pipeline's parent-commit lifecycle goldens (TestLifecycleGolden) and the
# all-sinks vs single-sink equivalence property
# (TestPipelineSharedTableEquivalence, all 24 seeded streams), attribution,
# flight recorder, watchdog, OpenMetrics exposition, and the root-package
# regression tests that drive the sharded lock with the fast path on while
# scraping the debug endpoints.
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

# `go test -run` passes silently when its regex matches nothing, so a renamed
# or deleted test would turn a targeted gate (park-race, alloc-guards,
# obs-race, telemetry-race, soak, the two integration targets, the nightly race
# soak) into a no-op. Take every `-run <list>` command of this file and of the
# workflows, resolve each name of the list with `go test -list` in the package
# the command names, and fail on a name that matches no test. (The `-run=^$$`
# of the bench and fuzz targets selects nothing on purpose; spelled with `=`,
# it is not picked up. This recipe drops itself from the scan by its name.)
check-run-lists:
	@sed -e ':a' -e '/\\$$/{' -e 'N' -e 's/\\\n//' -e 'ba' -e '}' Makefile .github/workflows/*.yml | \
	grep -v -e '^[[:space:]]*#' -e check-run-lists | grep -E ' test .* -run ' | { \
	set -f; lists=0; names=0; \
	while read -r line; do \
		pkg=; re=; prev=; \
		for tok in $$line; do \
			if [ "$$prev" = "-run" ]; then re=$$tok; fi; \
			case $$tok in .|./*) if [ -z "$$pkg" ]; then pkg=$$tok; fi;; esac; \
			prev=$$tok; \
		done; \
		have=$$($(GO) test -list . $$pkg | grep '^Test') || { echo "check-run-lists: cannot list tests of '$$pkg' for: $$line" >&2; exit 1; }; \
		for name in $$(echo "$$re" | tr -d "'" | tr '|' ' '); do \
			echo "$$have" | grep -Eq -- "$$name" || { echo "check-run-lists: $$name (package $$pkg) matches no test: $$line" >&2; exit 1; }; \
			names=$$((names + 1)); \
		done; \
		lists=$$((lists + 1)); \
	done; \
	[ $$lists -gt 0 ] || { echo "check-run-lists: found no -run list to check" >&2; exit 1; }; \
	echo "check-run-lists: $$names names in $$lists -run lists resolve"; }

# Same-run ablation pair gates: every overhead or speed-up bound CI enforces
# (flight recorder, metrics plane, the whole observability pipeline, writer
# fast path, trace tags, network tier, rnlpd observability) is one row of the
# table in cmd/benchjson/gates.go — benchmarks, threshold and rationale — and
# all rows run under one sampling protocol (five interleaved invocations,
# min-merged; see the note atop cmd/benchjson/main.go). A failing row leaves
# <name>_pair.json behind.
pair-gates:
	$(GO) run ./cmd/benchjson gates

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

# Remove what the gates, rnlpbench and `outputs` leave behind (the set
# .gitignore lists).
clean:
	rm -rf .bench_build benchmark/out
	rm -f *_pair.json *.flight.json *.trace.json mccheck-*-replay*.txt test_output.txt bench_output.txt
