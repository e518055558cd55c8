# Hot-path benchmark harness. `make bench` re-measures the message hot
# path and snapshots the allocation numbers into BENCH_hotpath.json
# (commit the result); `make bench-check` is the CI gate that fails on
# allocation regressions against that committed baseline.

GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The gated hot-path benchmarks: the Fig. 7 steady-state end-to-end run
# (root package, bare and with telemetry attached), the r2p2 codec
# paths, the wire buffer pool, and the telemetry record/rotate hooks.
# The loopback UDP benchmark is deliberately excluded — it needs socket
# bind permissions and reports throughput, not allocations.
BENCH_PATTERN := Hotpath|HeaderMarshal|Fragment|PooledFrag|IngestSingle|Reassemble|GetRelease
BENCH_PKGS := . ./internal/r2p2 ./internal/wire ./internal/obs

# The gated data-plane benchmarks: the batch-size × socket-count matrix
# (dg/sendmmsg amortization) and the group-commit durable-throughput run
# (fsyncs/req). The gated units are ratios, which hold across machines
# even though dg/s does not.
DATAPLANE_PATTERN := Dataplane|LoopbackDurableThroughput
DATAPLANE_PKG := ./internal/transport
DATAPLANE_NOTE := Data-plane baseline: sendmmsg amortization and WAL group-commit \
fsync ratios; regenerate with 'make bench'. CI gates dg/sendmmsg (floor) and \
fsyncs/req (ceiling) against this file (cmd/benchcheck).

# The gated overload-control benchmarks run in simulator virtual time,
# so the gated units (goodput as a fraction of measured capacity, the
# admitted-work p99, NACKs per request below capacity) are exact across
# machines. -benchtime=1x: one deterministic run is the measurement.
OVERLOAD_PATTERN := OverloadAdaptive2x|OverloadHalfLoad
OVERLOAD_PKG := ./internal/harness
OVERLOAD_NOTE := Overload-control baseline: adaptive admission goodput at 2x offered \
load (floor, as a fraction of measured 1x capacity), admitted-work p99 (ceiling, vs \
the 500us SLO), and NACKs/request at half load (ceiling). Deterministic virtual-time \
runs; regenerate with 'make bench'. Gated by cmd/benchcheck.

# The gated read-scale benchmarks also run in simulator virtual time:
# leased-read capacity under the SLO on YCSB-C at N=3 (floor), its
# ratio over log-ordered reads (floor), the write-class p99 with
# lin-reads flowing around the log (ceiling), and the stale-read
# counter (ceiling, zero slack — linearizability invariant).
READSCALE_PATTERN := ReadscaleYCSBC|ReadscaleMixedB
READSCALE_PKG := ./internal/harness
READSCALE_NOTE := Read-scale baseline: leased read-index capacity under the 500us \
SLO on YCSB-C at N=3 (floor), its ratio over log-ordered reads (floor), write-class \
p99 alongside lin-reads (ceiling), and the stale-read invariant (ceiling, zero \
slack). Deterministic virtual-time runs; regenerate with 'make bench'. Gated by \
cmd/benchcheck.

# The real-plane ledger (bench/, BENCHMARK.json): the four loopback-UDP
# workloads exactly as the benchmark driver runs them, one JSON result
# line each. Wall-clock numbers with a run-to-run spread — compare
# against a parent checkout run the same way (bench/README.md), there is
# no committed baseline to gate on.
E2E_WORKLOADS := write_open_2k write_sat_128 readmix_open_12k durable_open_2k

.PHONY: all build test race bench bench-check bench-dataplane bench-dataplane-check \
	bench-overload bench-overload-check bench-readscale bench-readscale-check \
	bench-e2e latency-smoke smoke-overload smoke-readscale experiments profile-sat

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

bench: bench-dataplane bench-overload bench-readscale
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchcheck -in bench.out -baseline BENCH_hotpath.json -update
	@rm -f bench.out

bench-check: bench-dataplane-check bench-overload-check bench-readscale-check
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=100x $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchcheck -in bench.out -baseline BENCH_hotpath.json
	@rm -f bench.out

bench-dataplane:
	$(GO) test -run '^$$' -bench '$(DATAPLANE_PATTERN)' -benchmem -benchtime=20000x $(DATAPLANE_PKG) | tee bench-dataplane.out
	$(GO) run ./cmd/benchcheck -in bench-dataplane.out -baseline BENCH_dataplane.json -update -note "$(DATAPLANE_NOTE)"
	@rm -f bench-dataplane.out

bench-dataplane-check:
	$(GO) test -run '^$$' -bench '$(DATAPLANE_PATTERN)' -benchmem -benchtime=20000x $(DATAPLANE_PKG) | tee bench-dataplane.out
	$(GO) run ./cmd/benchcheck -in bench-dataplane.out -baseline BENCH_dataplane.json
	@rm -f bench-dataplane.out

bench-overload:
	$(GO) test -run '^$$' -bench '$(OVERLOAD_PATTERN)' -benchtime=1x $(OVERLOAD_PKG) | tee bench-overload.out
	$(GO) run ./cmd/benchcheck -in bench-overload.out -baseline BENCH_overload.json -update -note "$(OVERLOAD_NOTE)"
	@rm -f bench-overload.out

bench-overload-check:
	$(GO) test -run '^$$' -bench '$(OVERLOAD_PATTERN)' -benchtime=1x $(OVERLOAD_PKG) | tee bench-overload.out
	$(GO) run ./cmd/benchcheck -in bench-overload.out -baseline BENCH_overload.json
	@rm -f bench-overload.out

bench-readscale:
	$(GO) test -run '^$$' -bench '$(READSCALE_PATTERN)' -benchtime=1x $(READSCALE_PKG) | tee bench-readscale.out
	$(GO) run ./cmd/benchcheck -in bench-readscale.out -baseline BENCH_readscale.json -update -note "$(READSCALE_NOTE)"
	@rm -f bench-readscale.out

bench-readscale-check:
	$(GO) test -run '^$$' -bench '$(READSCALE_PATTERN)' -benchtime=1x $(READSCALE_PKG) | tee bench-readscale.out
	$(GO) run ./cmd/benchcheck -in bench-readscale.out -baseline BENCH_readscale.json
	@rm -f bench-readscale.out

# The committed full-scale output of every simulator experiment. Runs
# are bit-deterministic for the default seed; the per-experiment wall
# time is the one line that is not, so it is dropped — regenerating on
# unchanged code leaves `git diff experiments_full.txt` empty.
experiments:
	$(GO) run ./cmd/hoverbench -experiment all | grep -v '^\[.* wall time\]$$' > experiments_full.tmp
	mv experiments_full.tmp experiments_full.txt

bench-e2e:
	@for w in $(E2E_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 21 --trace 0 | tail -n 1; \
	done

latency-smoke:
	bash scripts/latency_smoke.sh

# The saturated write path's profile: BenchmarkLoopbackUDPSaturated
# (write_sat_128's shape: 3 nodes, kvstore, 128 closed-loop writers over
# 2 client sockets) for 10 s under the CPU and memory profilers, then
# the top 20 of each. The test binary and profiles go to PROFILE_DIR.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/hovercraft-profile

profile-sat:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench LoopbackUDPSaturated -benchtime 10s -benchmem \
		-o $(PROFILE_DIR)/transport.test -outputdir $(PROFILE_DIR) \
		-cpuprofile sat.cpu -memprofile sat.mem ./internal/transport
	$(GO) tool pprof -top -nodecount 20 $(PROFILE_DIR)/transport.test $(PROFILE_DIR)/sat.cpu
	$(GO) tool pprof -top -nodecount 20 -sample_index alloc_objects \
		$(PROFILE_DIR)/transport.test $(PROFILE_DIR)/sat.mem

smoke-overload:
	bash scripts/overload_smoke.sh

smoke-readscale:
	bash scripts/readscale_smoke.sh
