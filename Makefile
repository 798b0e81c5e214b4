# Tier-1 gate for the siro reproduction. `make check` is what CI and
# pre-commit runs: formatting, vet, build, the full test suite, and the
# race gate over the packages with concurrent internals (the synth
# GenCache and hints shared by concurrent pairs, the interpreter, the
# translation service's cache, router, worker pool and matrix sweep, the
# metrics/tracing substrate, and the load CLI's in-process daemon, which
# wires a service, the jobs runner and HTTP together).

GO ?= go

.PHONY: check fmt vet build test race fuzz soak soak-smoke crash-smoke tenant-smoke stream-smoke load-smoke bench bench-micro bench-obs bench-gateway bench-e2e clean

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
	$(GO) test -race ./internal/synth ./internal/interp ./internal/service ./internal/obs ./internal/resilience ./internal/journal ./internal/tenant ./internal/irtext ./internal/scenario ./internal/scenario/loadcli

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
bench: bench-micro bench-obs bench-gateway

bench-micro:
	$(GO) test -bench=. -benchmem

# Instrumented vs uninstrumented cache-hit benchmark; asserts the
# observability layer costs <= 5% and writes BENCH_obs.json.
bench-obs:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_obs.json $(GO) test ./internal/service -run TestObsBenchReport -count=1 -v

# Gateway vs anonymous direct-handler benchmark; asserts the
# multi-tenant front door costs <= 5% on the cache-hit translate path
# and writes BENCH_gateway.json. The gated side runs with a tenant
# registry, as `sirod -tenants` does: auth, the fair queue, and
# coalescing's per-request sha256 of the input.
bench-gateway:
	SIRO_BENCH_JSON=$(CURDIR)/BENCH_gateway.json $(GO) test ./internal/service -run TestGatewayBenchReport -count=1 -v

# Layered end-to-end benchmark: every workload against a real sirod built
# from this checkout (see bench/README.md). Prints one JSON result per
# workload; reports and spans land in .bench_build/.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0

clean:
	$(GO) clean ./...
