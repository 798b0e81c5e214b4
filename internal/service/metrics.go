package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/version"
)

// Stage names of the request trace and the siro_stage_seconds
// histogram. The stages are disjoint ("cache" excludes the nested
// synthesis time, which is reported as "synth"), so a request's stage
// durations sum to roughly its wall time. The "cache" stage includes
// deriving the content-address key: memoized per (pair, gen) for
// canonical libraries, whose irlib registries are pure functions of
// version, and re-hashed on every lookup for override libraries.
const (
	stageParse     = "parse"    // textual IR → module at a stated version
	stageDetect    = "detect"   // version auto-detection (parse at every version)
	stageQueue     = "queue"    // enqueue → worker pickup
	stageCache     = "cache"    // translator lookup (memory + disk), synthesis excluded
	stageSynth     = "synth"    // full synthesis on a cache miss
	stageRoute     = "route"    // multi-hop route search incl. per-edge synthesis
	stageValidate  = "validate" // differential validation of a composed chain
	stageTranslate = "translate"
	stageHop       = "hop" // one edge of a multi-hop chain (repeats)
	stageWrite     = "write"
	stageStream    = "stream" // the whole bounded-memory streaming pipeline
)

var stageNames = []string{
	stageParse, stageDetect, stageQueue, stageCache, stageSynth,
	stageRoute, stageValidate, stageTranslate, stageHop, stageWrite, stageStream,
}

const unclassified = "unclassified"

// classLabel is the failure-class label value (and /v1/stats map key)
// of an error.
func classLabel(err error) string {
	if c := failure.ClassOf(err); c != nil {
		return c.Error()
	}
	return unclassified
}

// counter returns the named counter series on reg. With metrics off
// (nil reg) it returns an unregistered counter instead, which still
// counts: Stats reads the same counters /metrics exports, so they must
// stay live when nothing exports them.
func counter(reg *obs.Registry, name, help string, kv ...string) *obs.Counter {
	if reg == nil {
		return new(obs.Counter)
	}
	return reg.Counter(name, help, kv...)
}

// failureCounters binds one counter per failure class plus
// unclassified, keyed by classLabel; mk makes the counter for a label.
func failureCounters(mk func(class string) *obs.Counter) map[string]*obs.Counter {
	out := map[string]*obs.Counter{}
	for _, c := range failure.Classes() {
		out[c.Error()] = mk(c.Error())
	}
	out[unclassified] = mk(unclassified)
	return out
}

// serviceMetrics pre-binds every instrument the service updates, so
// the hot path is pure atomics — no registry lookups, no locks. It is
// never nil. Its counters are the service's only counts: Stats reads
// them, and /metrics exports those that have a series. With metrics
// off (nil reg) the counters Stats reads are unregistered but live;
// every other instrument is nil, and the obs instruments discard
// updates on a nil receiver.
type serviceMetrics struct {
	reg *obs.Registry // nil when metrics are off

	reqOK, reqErr *obs.Counter
	failures      map[string]*obs.Counter // by classLabel
	multiHop      *obs.Counter
	coalesced     *obs.Counter // no series: Stats only

	queueDepth *obs.Gauge
	queueWait  *obs.Histogram

	stages     map[string]*obs.Histogram
	hopSeconds *obs.Histogram

	synthCandidates   *obs.Counter
	synthPerTest      *obs.Counter
	synthValidations  *obs.Counter
	synthExecRuns     *obs.Counter
	synthGenCacheHits *obs.Counter
	synthNbrSeeded    *obs.Counter
	synthNbrFallback  *obs.Counter
	synthPhases       map[string]*obs.Histogram

	routesOK, routesErr *obs.Counter
	routeHops           *obs.Counter

	translatedInsts, emittedInsts *obs.Counter

	streamReqs, streamFailed *obs.Counter // no series: Stats only
	streamIn, streamOut      *obs.Counter // streamed bytes by direction
	heapAlloc                *obs.Gauge   // watchdog: live heap after the last sample
	streamMemInUse           *obs.Gauge   // watchdog: governor-leased bytes
	streamMemParked          *obs.Gauge   // watchdog: streams parked for capacity
	streamParks              *obs.Gauge   // cumulative parks (gauge: set from governor stats)
	streamRejections         *obs.Gauge   // cumulative budget rejections

	retries      *obs.Counter
	shed         *obs.Counter
	degraded     *obs.Counter
	quarantined  *obs.Counter
	drainSeconds *obs.Histogram
	transitions  map[string]*obs.Counter // breaker transitions by destination state

	cache  cacheMetrics
	router routerMetrics

	// Per-tenant instruments are bound lazily — the tenant set is
	// config, not code, and hot reloads can grow it — and cached so the
	// per-request path after the first is map lookups plus atomics.
	tenantMu sync.Mutex
	tenant   map[string]*tenantMetrics
}

// tenantMetrics pre-binds one tenant's service-side instruments.
type tenantMetrics struct {
	ok, err   *obs.Counter
	failures  map[string]*obs.Counter
	shed      *obs.Counter
	coalesced *obs.Counter
	streamed  *obs.Counter // no series: Stats only
	depth     *obs.Gauge
}

// cacheMetrics holds the cache's counters, which Cache.Stats reads. A
// standalone Cache (cmd/siro without a service) gets unregistered
// ones; a service's cache shares the service's registry.
type cacheMetrics struct {
	lookups      *obs.Counter
	memoryHits   *obs.Counter
	diskHits     *obs.Counter
	synthesized  *obs.Counter
	deduplicated *obs.Counter
	evictions    *obs.Counter
	staleDropped *obs.Counter
	quarantined  *obs.Counter
	gcEvictions  *obs.Counter
	// onTranslate is installed as the Observer of every translator the
	// cache constructs, feeding instruction-throughput counters; nil
	// when metrics are off.
	onTranslate func(srcInsts, emittedInsts int)
}

func newCacheMetrics(reg *obs.Registry) cacheMetrics {
	const help = "Translator cache events."
	return cacheMetrics{
		lookups:      counter(reg, "siro_cache_lookups_total", "Translator cache lookups."),
		memoryHits:   counter(reg, "siro_cache_events_total", help, "event", "memory_hit"),
		diskHits:     counter(reg, "siro_cache_events_total", help, "event", "disk_hit"),
		synthesized:  counter(reg, "siro_cache_events_total", help, "event", "synthesized"),
		deduplicated: counter(reg, "siro_cache_events_total", help, "event", "deduplicated"),
		evictions:    counter(reg, "siro_cache_events_total", help, "event", "eviction"),
		staleDropped: counter(reg, "siro_cache_events_total", help, "event", "stale_dropped"),
		quarantined:  counter(reg, "siro_cache_events_total", help, "event", "quarantined"),
		gcEvictions:  counter(reg, "siro_cache_gc_evictions_total", "On-disk artifacts removed by the size-bounded cache GC."),
	}
}

// routerMetrics is the router's slice of the service's instruments.
// Stats reads none of them; the zero value (a standalone router) is
// inert.
type routerMetrics struct {
	routesOK, routesErr *obs.Counter
	hops                *obs.Counter
	memoHits            *obs.Counter // broken-edge memo hits
	// stage records the chain-validation stage into the request trace
	// and the stage histogram (nil: skip).
	stage func(ctx context.Context, name string) func()
}

// newServiceMetrics registers the service's metric families on reg and
// returns the bound instruments. A nil reg (metrics off) binds
// unregistered counters for everything Stats reads and nil for the
// rest.
func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{reg: reg}

	const reqHelp = "Translation requests by outcome."
	m.reqOK = counter(reg, "siro_requests_total", reqHelp, "outcome", "ok")
	m.reqErr = counter(reg, "siro_requests_total", reqHelp, "outcome", "error")
	const failHelp = "Failed requests by failure class."
	m.failures = failureCounters(func(class string) *obs.Counter {
		return counter(reg, "siro_failures_total", failHelp, "class", class)
	})
	m.multiHop = counter(reg, "siro_multi_hop_requests_total", "Requests served through a composed multi-hop chain.")
	m.coalesced = new(obs.Counter)

	m.queueDepth = reg.Gauge("siro_queue_depth", "Jobs waiting in the worker queue.")
	m.queueWait = reg.Histogram("siro_queue_wait_seconds", "Time from enqueue to worker pickup.", nil)

	m.stages = map[string]*obs.Histogram{}
	for _, name := range stageNames {
		m.stages[name] = reg.Histogram("siro_stage_seconds", "Per-stage latency of the translation pipeline.", nil, "stage", name)
	}
	m.hopSeconds = m.stages[stageHop]

	m.synthCandidates = reg.Counter("siro_synth_candidates_total", "Candidate components enumerated by type-guided generation.")
	m.synthPerTest = reg.Counter("siro_synth_per_test_translators_total", "Per-test translators enumerated.")
	m.synthValidations = reg.Counter("siro_synth_validations_total", "Per-test translators differentially validated.")
	m.synthExecRuns = reg.Counter("siro_synth_exec_runs_total", "Oracle executions during validation.")
	m.synthGenCacheHits = reg.Counter("siro_synth_gencache_hits_total", "Candidate generations served from the cross-pair generation cache.")
	m.synthNbrSeeded = reg.Counter("siro_synth_neighbor_seeded_total", "Enumeration boxes seeded from a neighbor pair's refined cells.")
	m.synthNbrFallback = reg.Counter("siro_synth_neighbor_fallbacks_total", "Validation rounds that widened hint-seeded pools back to full pools.")
	m.synthPhases = map[string]*obs.Histogram{}
	for _, phase := range []string{"gen", "profile", "enum", "validate", "refine", "complete"} {
		m.synthPhases[phase] = reg.Histogram("siro_synth_phase_seconds", "Synthesis wall time by phase, one observation per synthesis run.", nil, "phase", phase)
	}

	const routeHelp = "Multi-hop route planning attempts by outcome."
	m.routesOK = reg.Counter("siro_router_routes_total", routeHelp, "outcome", "ok")
	m.routesErr = reg.Counter("siro_router_routes_total", routeHelp, "outcome", "error")
	m.routeHops = reg.Counter("siro_router_hops_total", "Edges in successfully planned routes.")

	m.translatedInsts = reg.Counter("siro_translated_instructions_total", "Source instructions dispatched through translators.")
	m.emittedInsts = reg.Counter("siro_emitted_instructions_total", "Target instructions emitted by translators.")

	m.streamReqs, m.streamFailed = new(obs.Counter), new(obs.Counter)
	const streamedHelp = "Bytes through the streaming translation path by direction."
	m.streamIn = counter(reg, "siro_streamed_bytes_total", streamedHelp, "direction", "in")
	m.streamOut = counter(reg, "siro_streamed_bytes_total", streamedHelp, "direction", "out")
	m.heapAlloc = reg.Gauge("siro_heap_alloc_bytes", "Live heap at the last watchdog sample.")
	m.streamMemInUse = reg.Gauge("siro_stream_mem_inuse_bytes", "Bytes leased from the streaming memory governor.")
	m.streamMemParked = reg.Gauge("siro_stream_mem_parked", "Streams parked waiting for streaming-memory capacity.")
	m.streamParks = reg.Gauge("siro_stream_mem_parks_total", "Cumulative stream acquisitions that had to park.")
	m.streamRejections = reg.Gauge("siro_stream_mem_rejections_total", "Cumulative stream acquisitions rejected by the memory budget.")

	m.retries = counter(reg, "siro_retries_total", "Synthesis retry attempts (transient failure classes only).")
	m.shed = counter(reg, "siro_shed_total", "Requests rejected by admission control (queue full or deadline-aware).")
	m.degraded = counter(reg, "siro_degraded_total", "Requests served by partial translation under queue pressure.")
	m.quarantined = counter(reg, "siro_quarantined_total", "Translators quarantined by serve-time differential validation.")
	m.drainSeconds = reg.Histogram("siro_drain_seconds", "Graceful-drain duration, one observation per drain.", nil)
	const transHelp = "Circuit breaker state transitions by destination state."
	m.transitions = map[string]*obs.Counter{}
	for _, st := range []resilience.State{resilience.StateClosed, resilience.StateHalfOpen, resilience.StateOpen} {
		m.transitions[st.String()] = reg.Counter("siro_breaker_transitions_total", transHelp, "to", st.String())
	}

	m.cache = newCacheMetrics(reg)
	if reg != nil {
		m.cache.onTranslate = func(src, emitted int) {
			m.translatedInsts.Add(int64(src))
			m.emittedInsts.Add(int64(emitted))
		}
	}
	m.router = routerMetrics{
		routesOK:  m.routesOK,
		routesErr: m.routesErr,
		hops:      m.routeHops,
		memoHits:  reg.Counter("siro_router_broken_edge_memo_hits_total", "Route-search edges failed fast by an open circuit breaker."),
		stage:     m.stageTimer,
	}
	return m
}

// tenantMet returns (binding on first use) a tenant's instruments.
// Callers skip the anonymous id "", so no tenant series exists for
// identity-less traffic.
func (m *serviceMetrics) tenantMet(id string) *tenantMetrics {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if m.tenant == nil {
		m.tenant = map[string]*tenantMetrics{}
	}
	tm := m.tenant[id]
	if tm == nil {
		reg := m.reg
		const reqHelp = "Translation requests by tenant and outcome."
		const failHelp = "Failed requests by tenant and failure class."
		tm = &tenantMetrics{
			ok:  counter(reg, "siro_tenant_translations_total", reqHelp, "tenant", id, "outcome", "ok"),
			err: counter(reg, "siro_tenant_translations_total", reqHelp, "tenant", id, "outcome", "error"),
			failures: failureCounters(func(class string) *obs.Counter {
				return reg.Counter("siro_tenant_failures_total", failHelp, "tenant", id, "class", class)
			}),
			shed:      counter(reg, "siro_tenant_shed_total", "Admissions shed by tenant.", "tenant", id),
			coalesced: counter(reg, "siro_tenant_coalesced_total", "Requests served by sharing an in-flight translation, by tenant.", "tenant", id),
			streamed:  new(obs.Counter),
			depth:     reg.Gauge("siro_tenant_queue_depth", "Fair-queue backlog by tenant.", "tenant", id),
		}
		m.tenant[id] = tm
	}
	return tm
}

// tenantStats snapshots every tenant's counters (QueueDepth is the
// caller's to fill).
func (m *serviceMetrics) tenantStats() map[string]TenantStats {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if len(m.tenant) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(m.tenant))
	for id, tm := range m.tenant {
		ok, failed := tm.ok.Value(), tm.err.Value()
		out[id] = TenantStats{
			Requests:      ok + failed,
			Completed:     ok,
			Failed:        failed,
			Shed:          tm.shed.Value(),
			Coalesced:     tm.coalesced.Value(),
			StreamedBytes: tm.streamed.Value(),
		}
	}
	return out
}

// failureClasses snapshots the non-zero per-class failure counts.
func (m *serviceMetrics) failureClasses() map[string]int64 {
	out := map[string]int64{}
	for class, c := range m.failures {
		if n := c.Value(); n > 0 {
			out[class] = n
		}
	}
	return out
}

// outcome counts one request's outcome, service-wide and, for a
// non-anonymous id, under the tenant label: untenanted deployments
// keep their metric surface unchanged.
func (m *serviceMetrics) outcome(id string, route []version.V, err error) {
	var tm *tenantMetrics
	if id != "" {
		tm = m.tenantMet(id)
	}
	if err != nil {
		class := classLabel(err)
		m.failures[class].Inc()
		m.reqErr.Inc()
		if tm != nil {
			tm.failures[class].Inc()
			tm.err.Inc()
		}
		return
	}
	if len(route) > 2 {
		m.multiHop.Inc()
	}
	m.reqOK.Inc()
	if tm != nil {
		tm.ok.Inc()
	}
}

// tenantQueueDepth is the fair queue's depth observer. It runs with
// the queue lock held, so it must not re-enter the queue (it doesn't:
// registry and tenant-map locks only). Like outcome it skips the
// anonymous tenant, whose identity-less jobs share the fair queue.
func (m *serviceMetrics) tenantQueueDepth(id string, depth int) {
	if id == "" {
		return
	}
	m.tenantMet(id).depth.Set(int64(depth))
}

// timed reports whether a stage timing has anywhere to go: the
// stage histograms (metrics on) or the request's trace.
func (m *serviceMetrics) timed(ctx context.Context) bool {
	return m.reg != nil || obs.TraceFrom(ctx) != nil
}

// stageTimer starts a pipeline stage: the returned func records its
// duration into the request trace (when ctx carries one) and the stage
// histogram. Tracing still works with metrics off.
func (m *serviceMetrics) stageTimer(ctx context.Context, name string) func() {
	if !m.timed(ctx) {
		return func() {}
	}
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	return func() { m.stageDone(tr, name, time.Since(start)) }
}

// stageDur records an already-measured stage duration.
func (m *serviceMetrics) stageDur(ctx context.Context, name string, d time.Duration) {
	m.stageDone(obs.TraceFrom(ctx), name, d)
}

func (m *serviceMetrics) stageDone(tr *obs.Trace, name string, d time.Duration) {
	tr.Add(name, d)
	m.stages[name].ObserveDuration(d)
}

// breakerChange exports a circuit breaker transition as the per-pair
// siro_breaker_state gauge (0 closed, 1 half-open, 2 open) and the
// transition counter. Called with the breaker Set's lock held; the
// registry has its own independent lock.
func (m *serviceMetrics) breakerChange(key string, to resilience.State) {
	m.reg.Gauge("siro_breaker_state", "Circuit breaker state by version pair (0 closed, 1 half-open, 2 open).", "pair", key).Set(int64(to))
	m.transitions[to.String()].Inc()
}

// watchdogSample exports one heap-watchdog observation. The governor's
// cumulative counters export as gauges set to the latest snapshot —
// monotone by construction, sampled rather than incremented.
func (m *serviceMetrics) watchdogSample(heapAlloc uint64, gs resilience.MemStats) {
	m.heapAlloc.Set(int64(heapAlloc))
	m.streamMemInUse.Set(gs.InUse)
	m.streamMemParked.Set(int64(gs.Parked))
	m.streamParks.Set(int64(gs.Parks))
	m.streamRejections.Set(int64(gs.Rejections))
}

// recordSynth exports one synthesis run's enumeration counts and phase
// times — the §6.4 measurements, live.
func (m *serviceMetrics) recordSynth(st synth.Stats) {
	m.synthCandidates.Add(int64(st.CandidatesTotal()))
	m.synthPerTest.Add(int64(st.PerTestTotal))
	m.synthValidations.Add(int64(st.Validations))
	m.synthExecRuns.Add(int64(st.ExecRuns))
	m.synthGenCacheHits.Add(int64(st.GenCacheHits))
	m.synthNbrSeeded.Add(int64(st.NeighborSeeded))
	m.synthNbrFallback.Add(int64(st.NeighborFallbacks))
	for phase, d := range st.Phases() {
		m.synthPhases[phase].ObserveDuration(d)
	}
}
