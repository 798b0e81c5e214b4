# Tier-1 gate for the siro reproduction. `make check` is what CI and
# pre-commit runs: formatting, vet, build, the full test suite, and the
# race gate over the packages with concurrent internals (the synth
# worker pool, the interpreter used from it, the translation service's
# cache, router, and worker pool, and the metrics/tracing substrate).

GO ?= go

.PHONY: check fmt vet build test race fuzz soak soak-smoke cluster-smoke crash-smoke tenant-smoke stream-smoke load-smoke bench bench-micro bench-service bench-obs bench-journal bench-gateway bench-synth bench-stream bench-e2e clean

check: fmt vet build test race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/synth ./internal/interp ./internal/service ./internal/obs ./internal/resilience ./internal/cluster ./internal/journal ./internal/tenant ./internal/irtext ./internal/scenario

# Short fuzz smoke of the fuzz targets; crashers land in
# internal/<pkg>/testdata/fuzz and are replayed by plain `go test`.
fuzz:
	$(GO) test ./internal/irtext/ -fuzz FuzzParseText -fuzztime 30s
	$(GO) test ./internal/irtext/ -fuzz FuzzParseStream -fuzztime 30s
	$(GO) test ./internal/cc/ -fuzz FuzzCC -fuzztime 30s
	$(GO) test ./internal/service/ -fuzz FuzzTranslateRequest -fuzztime 30s

# Chaos soak: the live daemon hammered for a bounded wall clock with
# lie/trap/panic/hang synthesis faults, corrupted request bodies, a
# forced breaker open→half-open→closed cycle, and an injected
# quarantine. Exits non-zero on any unclassified error, any wrong
# translation served, a missed breaker transition, or a goroutine leak
# after drain. SOAK_JSON names the machine-readable summary.
SOAK_JSON ?= $(CURDIR)/SOAK_summary.json
soak:
	SIRO_SOAK_SECONDS=20 SIRO_SOAK_CLIENTS=8 SIRO_SOAK_JSON=$(SOAK_JSON) \
		$(GO) test ./internal/service -run TestChaosSoak -count=1 -v -timeout 10m

# CI variant: race-enabled, chaos rates dialed down, bounded well
# under 30s of hammering.
soak-smoke:
	SIRO_SOAK_SECONDS=3 SIRO_SOAK_CLIENTS=4 \
	SIRO_SOAK_LIE=0.05 SIRO_SOAK_TRAP=0.05 SIRO_SOAK_PANIC=0.03 SIRO_SOAK_HANG=0.03 \
	SIRO_SOAK_JSON=$(SOAK_JSON) \
		$(GO) test -race ./internal/service -run TestChaosSoak -count=1 -v -timeout 10m

# Cluster smoke: a 3-worker coordinator-fronted fleet soaked with
# concurrent traffic while one worker is crashed mid-run and a
# replacement joins, then drained. Race-enabled. Exits non-zero on any
# failed request, any wrong translation served, a duplicated synthesis
# beyond the churn bound, or an orphaned cluster job after drain.
# CLUSTER_JSON names the machine-readable summary, archived by CI next
# to SOAK_summary.json.
CLUSTER_JSON ?= $(CURDIR)/CLUSTER_summary.json
cluster-smoke:
	SIRO_CLUSTER_SOAK_SECONDS=3 SIRO_CLUSTER_SOAK_CLIENTS=4 \
	SIRO_CLUSTER_JSON=$(CLUSTER_JSON) \
		$(GO) test -race ./internal/cluster -run TestClusterSmoke -count=1 -v -timeout 10m

# Crash-injection soak: a real sirod binary is repeatedly kill -9'd
# mid-batch at randomized points (one cycle uses the forced
# double-SIGTERM exit instead) and restarted over the same journal and
# cache. Race-enabled. Exits non-zero if any accepted job is lost,
# duplicated, left unclassified, or served a result that fails
# client-side differential re-validation, or if journal segments are
# not reclaimed. CRASH_JSON names the machine-readable summary,
# archived by CI next to the soak summaries.
CRASH_JSON ?= $(CURDIR)/CRASH_summary.json
crash-smoke:
	SIRO_CRASH_CYCLES=3 SIRO_CRASH_JOBS=6 \
	SIRO_CRASH_JSON=$(CRASH_JSON) \
		$(GO) test -race ./internal/crash -run TestCrashSoak -count=1 -v -timeout 10m

# Multi-tenant contention soak: fairness (10:1 load split ~50/50 by
# DRR), cross-tenant coalescing (one synthesis, every requester
# charged), and a 3-tenant flood-vs-interactive fleet through the full
# gateway stack. Race-enabled. Exits non-zero on cross-tenant
# starvation, any unclassified response, or interactive latency blowing
# past its bound. TENANT_JSON names the machine-readable summary,
# archived by CI next to the soak summaries.
TENANT_JSON ?= $(CURDIR)/TENANT_summary.json
tenant-smoke:
	SIRO_TENANT_SECONDS=3 SIRO_TENANT_JSON=$(TENANT_JSON) \
		$(GO) test -race ./internal/service -run TestTenantSmoke -count=1 -v -timeout 10m

# Streaming smoke: concurrent clients stream well-formed, truncated and
# garbage modules through a live handler under a deliberately tiny
# memory budget, with a hog cycling most of it so the governor really
# parks and rejects. Race-enabled. Exits non-zero on any untyped
# response, a streamed body that differs from the batch translation, an
# undrained governor, an unexercised backpressure path, or a goroutine
# leak after drain. STREAM_JSON names the machine-readable summary.
STREAM_JSON ?= $(CURDIR)/STREAM_summary.json
stream-smoke:
	SIRO_STREAM_SECONDS=3 SIRO_STREAM_JSON=$(STREAM_JSON) \
		$(GO) test -race ./internal/service -run TestStreamSmoke -count=1 -v -timeout 10m

# Load smoke: a deterministic mixed schedule (hot/long-tail/matrix,
# medium+giant streams, batch jobs, malformed and bad-version requests
# over multiple tenant keys) replayed race-enabled against a live
# daemon over real HTTP. Exits non-zero on any unclassified response or
# any entry failing off its expected-outcome label. LOAD_JSON names the
# LOAD_summary.json artifact CI archives; its schedule_digest is the
# replay-determinism receipt.
LOAD_JSON ?= $(CURDIR)/LOAD_summary.json
load-smoke:
	SIRO_LOAD_SECONDS=5 SIRO_LOAD_RATE=40 SIRO_LOAD_JSON=$(LOAD_JSON) \
		$(GO) test -race ./internal/scenario -run TestLoadSmoke -count=1 -v -timeout 10m

# Umbrella benchmark gate: every in-process bench-* gate, so a new gate
# added here cannot silently drift out of "run all the benchmarks". The
# end-to-end benchmark (bench-e2e) is a separate, minutes-long run.
bench: bench-micro bench-service bench-obs bench-journal bench-gateway bench-synth bench-stream

bench-micro:
	$(GO) test -bench=. -benchmem

# Cache-hit vs cold-synthesis service benchmark; asserts a >= 10x
# speedup and writes the measurements to BENCH_service.json.
bench-service:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_service.json $(GO) test ./internal/service -run TestServiceBenchReport -count=1 -v

# Instrumented vs uninstrumented cache-hit benchmark; asserts the
# observability layer costs <= 5% and writes BENCH_obs.json.
bench-obs:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_obs.json $(GO) test ./internal/service -run TestObsBenchReport -count=1 -v

# Journaled vs unjournaled synchronous translate benchmark; asserts the
# durable job journal costs <= 5% on the sync hot path and writes
# BENCH_journal.json.
bench-journal:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_journal.json $(GO) test ./internal/service -run TestJournalBenchReport -count=1 -v

# Gateway (auth + fair queue) vs anonymous direct-handler benchmark;
# asserts the multi-tenant front door costs <= 5% on the cache-hit
# translate path and writes BENCH_gateway.json.
bench-gateway:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_gateway.json $(GO) test ./internal/service -run TestGatewayBenchReport -count=1 -v

# Cold-synthesis benchmark: serial vs parallel vs warm-neighbor.
# Asserts byte-identical serial/parallel exports, a >= 2x parallel
# speedup on 4+ cores (reported only on smaller machines), and a
# >= 1.2x warm-neighbor speedup; writes BENCH_synth.json.
bench-synth:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_synth.json $(GO) test ./internal/synth -run TestSynthBenchReport -count=1 -v -timeout 20m

# Streaming vs batch peak-live-heap benchmark on a generated module and
# its 10x sibling; asserts streaming's peak growth stays <= 1.3x while
# batch's scales >= 5x, and writes BENCH_stream.json.
bench-stream:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_stream.json $(GO) test ./internal/service -run TestStreamBenchReport -count=1 -v

# Layered end-to-end benchmark: every workload against a real sirod built
# from this checkout (see bench/README.md). Prints one JSON result per
# workload; reports and spans land in .bench_build/.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0

clean:
	$(GO) clean ./...
