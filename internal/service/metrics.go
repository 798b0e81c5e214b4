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
	stageCluster   = "cluster"  // remote placement: peer artifact fetch or worker job
	stageSynth     = "synth"    // full synthesis on a cache miss
	stageRoute     = "route"    // multi-hop route search incl. per-edge synthesis
	stageValidate  = "validate" // differential validation of a composed chain
	stageTranslate = "translate"
	stageHop       = "hop" // one edge of a multi-hop chain (repeats)
	stageWrite     = "write"
	stageStream    = "stream" // the whole bounded-memory streaming pipeline
)

var stageNames = []string{
	stageParse, stageDetect, stageQueue, stageCache, stageCluster, stageSynth,
	stageRoute, stageValidate, stageTranslate, stageHop, stageWrite, stageStream,
}

// failureClasses are the label values of siro_failures_total, matching
// the keys of Stats.FailureClasses so /metrics and /v1/stats agree.
var failureClasses = []*failure.Class{
	failure.Parse, failure.Synthesis, failure.Validation, failure.Budget, failure.Unsupported,
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

// serviceMetrics pre-binds every instrument the service updates, so
// the hot path is pure atomics — no registry lookups, no locks. A nil
// *serviceMetrics (observability disabled) makes every method a no-op;
// the nested obs instruments are themselves nil-safe.
type serviceMetrics struct {
	reg *obs.Registry

	reqOK, reqErr *obs.Counter
	failures      map[string]*obs.Counter
	multiHop      *obs.Counter

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

	streamIn, streamOut *obs.Counter // streamed bytes by direction
	heapAlloc           *obs.Gauge   // watchdog: live heap after the last sample
	streamMemInUse      *obs.Gauge   // watchdog: governor-leased bytes
	streamMemParked     *obs.Gauge   // watchdog: streams parked for capacity
	streamParks         *obs.Gauge   // cumulative parks (gauge: set from governor stats)
	streamRejections    *obs.Gauge   // cumulative budget rejections

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
	depth     *obs.Gauge
}

// cacheMetrics mirrors CacheStats into the registry. The zero value
// (all nil) is inert, so a standalone Cache (cmd/siro without a
// service) carries no instrumentation.
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
	// cache constructs, feeding instruction-throughput counters.
	onTranslate func(srcInsts, emittedInsts int)
}

// routerMetrics is the router's slice of the registry; zero value inert.
type routerMetrics struct {
	routesOK, routesErr *obs.Counter
	hops                *obs.Counter
	memoHits            *obs.Counter // broken-edge memo hits
	// stage records the chain-validation stage into the request trace
	// and the stage histogram (nil: skip).
	stage func(ctx context.Context, name string) func()
}

// newServiceMetrics registers the service's metric families on reg and
// returns the bound instruments; a nil reg returns nil (observability
// off).
func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	if reg == nil {
		return nil
	}
	m := &serviceMetrics{reg: reg}

	const reqHelp = "Translation requests by outcome."
	m.reqOK = reg.Counter("siro_requests_total", reqHelp, "outcome", "ok")
	m.reqErr = reg.Counter("siro_requests_total", reqHelp, "outcome", "error")
	m.failures = map[string]*obs.Counter{}
	const failHelp = "Failed requests by failure class."
	for _, c := range failureClasses {
		m.failures[c.Error()] = reg.Counter("siro_failures_total", failHelp, "class", c.Error())
	}
	m.failures[unclassified] = reg.Counter("siro_failures_total", failHelp, "class", unclassified)
	m.multiHop = reg.Counter("siro_multi_hop_requests_total", "Requests served through a composed multi-hop chain.")

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

	const streamedHelp = "Bytes through the streaming translation path by direction."
	m.streamIn = reg.Counter("siro_streamed_bytes_total", streamedHelp, "direction", "in")
	m.streamOut = reg.Counter("siro_streamed_bytes_total", streamedHelp, "direction", "out")
	m.heapAlloc = reg.Gauge("siro_heap_alloc_bytes", "Live heap at the last watchdog sample.")
	m.streamMemInUse = reg.Gauge("siro_stream_mem_inuse_bytes", "Bytes leased from the streaming memory governor.")
	m.streamMemParked = reg.Gauge("siro_stream_mem_parked", "Streams parked waiting for streaming-memory capacity.")
	m.streamParks = reg.Gauge("siro_stream_mem_parks_total", "Cumulative stream acquisitions that had to park.")
	m.streamRejections = reg.Gauge("siro_stream_mem_rejections_total", "Cumulative stream acquisitions rejected by the memory budget.")

	m.retries = reg.Counter("siro_retries_total", "Synthesis retry attempts (transient failure classes only).")
	m.shed = reg.Counter("siro_shed_total", "Requests rejected by admission control (queue full or deadline-aware).")
	m.degraded = reg.Counter("siro_degraded_total", "Requests served by partial translation under queue pressure.")
	m.quarantined = reg.Counter("siro_quarantined_total", "Translators quarantined by serve-time differential validation.")
	m.drainSeconds = reg.Histogram("siro_drain_seconds", "Graceful-drain duration, one observation per drain.", nil)
	const transHelp = "Circuit breaker state transitions by destination state."
	m.transitions = map[string]*obs.Counter{}
	for _, st := range []resilience.State{resilience.StateClosed, resilience.StateHalfOpen, resilience.StateOpen} {
		m.transitions[st.String()] = reg.Counter("siro_breaker_transitions_total", transHelp, "to", st.String())
	}

	const cacheHelp = "Translator cache events."
	m.cache = cacheMetrics{
		lookups:      reg.Counter("siro_cache_lookups_total", "Translator cache lookups."),
		memoryHits:   reg.Counter("siro_cache_events_total", cacheHelp, "event", "memory_hit"),
		diskHits:     reg.Counter("siro_cache_events_total", cacheHelp, "event", "disk_hit"),
		synthesized:  reg.Counter("siro_cache_events_total", cacheHelp, "event", "synthesized"),
		deduplicated: reg.Counter("siro_cache_events_total", cacheHelp, "event", "deduplicated"),
		evictions:    reg.Counter("siro_cache_events_total", cacheHelp, "event", "eviction"),
		staleDropped: reg.Counter("siro_cache_events_total", cacheHelp, "event", "stale_dropped"),
		quarantined:  reg.Counter("siro_cache_events_total", cacheHelp, "event", "quarantined"),
		gcEvictions:  reg.Counter("siro_cache_gc_evictions_total", "On-disk artifacts removed by the size-bounded cache GC."),
		onTranslate: func(src, emitted int) {
			m.translatedInsts.Add(int64(src))
			m.emittedInsts.Add(int64(emitted))
		},
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
// The anonymous id labels as "anonymous" so the label set stays valid.
func (m *serviceMetrics) tenantMet(id string) *tenantMetrics {
	if id == "" {
		id = "anonymous"
	}
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
			ok:        reg.Counter("siro_tenant_translations_total", reqHelp, "tenant", id, "outcome", "ok"),
			err:       reg.Counter("siro_tenant_translations_total", reqHelp, "tenant", id, "outcome", "error"),
			failures:  map[string]*obs.Counter{},
			shed:      reg.Counter("siro_tenant_shed_total", "Admissions shed by tenant.", "tenant", id),
			coalesced: reg.Counter("siro_tenant_coalesced_total", "Requests served by sharing an in-flight translation, by tenant.", "tenant", id),
			depth:     reg.Gauge("siro_tenant_queue_depth", "Fair-queue backlog by tenant.", "tenant", id),
		}
		for _, c := range failureClasses {
			tm.failures[c.Error()] = reg.Counter("siro_tenant_failures_total", failHelp, "tenant", id, "class", c.Error())
		}
		tm.failures[unclassified] = reg.Counter("siro_tenant_failures_total", failHelp, "tenant", id, "class", unclassified)
		m.tenant[id] = tm
	}
	return tm
}

// tenantOutcome mirrors recordOutcome under the tenant label. The
// anonymous tenant ("") is skipped: untenanted deployments keep their
// metric surface unchanged.
func (m *serviceMetrics) tenantOutcome(id string, err error) {
	if m == nil || id == "" {
		return
	}
	tm := m.tenantMet(id)
	if err != nil {
		tm.err.Inc()
		if c, ok := tm.failures[classLabel(err)]; ok {
			c.Inc()
		}
		return
	}
	tm.ok.Inc()
}

func (m *serviceMetrics) tenantShed(id string) {
	if m == nil || id == "" {
		return
	}
	m.tenantMet(id).shed.Inc()
}

func (m *serviceMetrics) tenantCoalesced(id string) {
	if m == nil || id == "" {
		return
	}
	m.tenantMet(id).coalesced.Inc()
}

// tenantQueueDepth is the fair queue's depth observer. It runs with
// the queue lock held, so it must not re-enter the queue (it doesn't:
// registry and tenant-map locks only).
func (m *serviceMetrics) tenantQueueDepth(id string, depth int) {
	if m == nil {
		return
	}
	m.tenantMet(id).depth.Set(int64(depth))
}

// Registry exposes the underlying registry (nil when disabled).
func (m *serviceMetrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// stageTimer starts a pipeline stage: the returned func records its
// duration into the request trace (when ctx carries one) and the stage
// histogram. Usable with a nil receiver — tracing still works with
// metrics disabled.
func (m *serviceMetrics) stageTimer(ctx context.Context, name string) func() {
	tr := obs.TraceFrom(ctx)
	if tr == nil && m == nil {
		return func() {}
	}
	start := time.Now()
	return func() { m.stageDone(tr, name, time.Since(start)) }
}

// stageDur records an already-measured stage duration.
func (m *serviceMetrics) stageDur(ctx context.Context, name string, d time.Duration) {
	m.stageDone(obs.TraceFrom(ctx), name, d)
}

func (m *serviceMetrics) stageDone(tr *obs.Trace, name string, d time.Duration) {
	tr.Add(name, d)
	if m != nil {
		m.stages[name].ObserveDuration(d)
	}
}

// recordOutcome mirrors Service.record into the registry.
func (m *serviceMetrics) recordOutcome(route []version.V, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.reqErr.Inc()
		if c, ok := m.failures[classLabel(err)]; ok {
			c.Inc()
		}
		return
	}
	m.reqOK.Inc()
	if len(route) > 2 {
		m.multiHop.Inc()
	}
}

// breakerChange mirrors a circuit breaker transition into the
// per-pair siro_breaker_state gauge (0 closed, 1 half-open, 2 open)
// and the transition counter. Called with the breaker Set's lock held;
// the registry has its own independent lock.
func (m *serviceMetrics) breakerChange(key string, to resilience.State) {
	if m == nil {
		return
	}
	m.reg.Gauge("siro_breaker_state", "Circuit breaker state by version pair (0 closed, 1 half-open, 2 open).", "pair", key).Set(int64(to))
	if c, ok := m.transitions[to.String()]; ok {
		c.Inc()
	}
}

// streamedBytes counts one stream's traffic.
func (m *serviceMetrics) streamedBytes(in, out int64) {
	if m == nil {
		return
	}
	m.streamIn.Add(in)
	m.streamOut.Add(out)
}

// watchdogSample exports one heap-watchdog observation. The governor's
// cumulative counters export as gauges set to the latest snapshot —
// monotone by construction, sampled rather than incremented.
func (m *serviceMetrics) watchdogSample(heapAlloc uint64, gs resilience.MemStats) {
	if m == nil {
		return
	}
	m.heapAlloc.Set(int64(heapAlloc))
	m.streamMemInUse.Set(gs.InUse)
	m.streamMemParked.Set(int64(gs.Parked))
	m.streamParks.Set(int64(gs.Parks))
	m.streamRejections.Set(int64(gs.Rejections))
}

func (m *serviceMetrics) retriesInc() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *serviceMetrics) shedInc() {
	if m != nil {
		m.shed.Inc()
	}
}

func (m *serviceMetrics) degradedInc() {
	if m != nil {
		m.degraded.Inc()
	}
}

func (m *serviceMetrics) quarantinedInc() {
	if m != nil {
		m.quarantined.Inc() // Cache.Quarantine separately counts the cache event
	}
}

func (m *serviceMetrics) drainDone(d time.Duration) {
	if m != nil {
		m.drainSeconds.ObserveDuration(d)
	}
}

// recordSynth exports one synthesis run's enumeration counts and phase
// times — the §6.4 measurements, live.
func (m *serviceMetrics) recordSynth(st synth.Stats) {
	if m == nil {
		return
	}
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
