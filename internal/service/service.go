package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/tenant"
	"repro/internal/translator"
	"repro/internal/tvalid"
	"repro/internal/version"
)

// SynthFn produces a synthesis result for one version pair. It is the
// chaos-injectable seam of the service: the default runs the full
// synthesis loop over the built-in corpus, tests substitute one that
// fails selectively (to force multi-hop routing) or hands the
// synthesizer a poisoned API library via opts.Getters/Builders.
type SynthFn func(pair version.Pair, opts synth.Options) (*synth.Result, error)

// DefaultSynthFn is the production synthesis path.
func DefaultSynthFn(pair version.Pair, opts synth.Options) (*synth.Result, error) {
	s := synth.New(pair.Source, pair.Target, opts)
	return s.Run(corpus.Tests(pair.Source))
}

// Config tunes a Service.
type Config struct {
	// CacheDir is where synthesis artifacts persist; "" keeps the
	// translator cache memory-only.
	CacheDir string
	// CacheMaxBytes bounds the on-disk artifact directory: past the
	// budget, least-recently-hit artifacts are GC'd after each persist.
	// 0 leaves the directory unbounded.
	CacheMaxBytes int64
	// Workers is the translation worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the pending-job queue; a full queue makes
	// Translate block until a slot frees or the caller's context
	// expires (default 64).
	QueueDepth int
	// JobTimeout is the per-job wall-clock deadline, enforced on
	// synthesis (via synth.Options.TestDeadline), routing, and
	// translation alike; 0 means no service-imposed deadline. Expiry is
	// a Budget-classified failure.
	JobTimeout time.Duration
	// MaxHops caps multi-hop route length; 1 disables routing, 0 means
	// the router default (3).
	MaxHops int
	// Versions is the version universe served and routed over; defaults
	// to version.All.
	Versions []version.V
	// Synth tunes translator synthesis; it is part of the cache key.
	Synth synth.Options
	// SynthFn overrides the synthesis path (chaos/testing seam).
	SynthFn SynthFn
	// Metrics is the registry the service's instruments register into;
	// nil creates a private registry (retrievable via Service.Metrics,
	// served by the HTTP handler at /metrics).
	Metrics *obs.Registry
	// DisableMetrics turns the registry off: no /metrics, no
	// histograms, no stage timers and no heap watchdog — the
	// uninstrumented baseline `make bench-obs` compares against. The
	// counters behind Stats keep counting, unregistered.
	DisableMetrics bool
	// MaxRetries is how many times a transient synthesis failure is
	// retried (decorrelated-jitter backoff, Budget surfaced when the
	// deadline expires mid-retry) before the failure is reported and
	// the pair's breaker advances. 0 disables retrying — the library
	// default, so a first failure surfaces to the caller; the daemon
	// defaults to 2 via -max-retries.
	MaxRetries int
	// BreakerFailures is the consecutive trip-class failure count that
	// opens a version pair's circuit breaker (default 1: synthesis
	// attempts are expensive, probes are cheap to defer).
	BreakerFailures int
	// BreakerCooldown is the base open→half-open breaker cooldown
	// (default 5s), jittered per transition into [cooldown/2, cooldown]
	// and doubled (capped at 8×) on every failed probe.
	BreakerCooldown time.Duration
	// ShedAt is the queue depth at which admission sheds new work with
	// an Overload rejection (HTTP 429 + Retry-After) instead of letting
	// it queue: 0 means QueueDepth (shed only when the queue is full),
	// negative disables shedding and restores blocking admission.
	ShedAt int
	// DegradeUnderPressure serves partial translations (unsupported
	// constructs dropped, reported per response) instead of failing
	// Unsupported while the queue is at least half full.
	DegradeUnderPressure bool
	// ServeTrials enables serve-time differential validation: each
	// direct translation is re-checked with this many random trials
	// before being served, and a diverging translator is quarantined
	// on disk and resynthesized once. 0 disables it (synthesis-time
	// validation already ran); it is the last line of defense against
	// poisoned cache artifacts.
	ServeTrials int
	// ServeValidate overrides the serve-time validator (test seam). A
	// non-nil error quarantines the serving translator.
	ServeValidate func(src, out *ir.Module) error
	// StreamMemBudget bounds the process-wide memory the streaming
	// translation path may hold in flight at once, in bytes. A stream
	// that would exceed it parks (bounded by StreamMaxWait) until other
	// streams flush, then fails with a Budget-classed Overload rejection
	// (HTTP 429 + Retry-After). 0 disables enforcement — streams are
	// still accounted, never parked.
	StreamMemBudget int64
	// StreamMaxWait bounds how long one stream may park waiting for
	// streaming-memory capacity (default 5s).
	StreamMaxWait time.Duration
	// Tenants turns the service multi-tenant; nil keeps the anonymous
	// single-FIFO service. A registry changes two things:
	//
	//   - scheduling: the FIFO job channel is replaced by a
	//     deficit-round-robin tenant.FairQueue. Each tenant gets its own
	//     bounded queue (capacity = the shed threshold) and workers serve
	//     backlogged tenants in proportion to Tenants.Weight, read on
	//     every scheduling turn so a hot-reloaded weight applies without
	//     a restart. Admission never blocks: a tenant whose own queue is
	//     full is shed, even when ShedAt is negative.
	//   - coalescing: concurrent textual requests for the identical
	//     (source, target, input text) share one in-flight translation,
	//     across tenants, so a thundering herd on one module costs one
	//     synthesis and one translation. Each requester is still
	//     recorded (and charged) individually.
	//
	// Anonymous deployments keep the FIFO channel: DRR over a single
	// tenant dequeues in FIFO order anyway, with more locking per job.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SynthFn == nil {
		c.SynthFn = DefaultSynthFn
	}
	if len(c.Versions) == 0 {
		c.Versions = version.All
	}
	if c.DisableMetrics {
		c.Metrics = nil
	} else if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	Requests       int64             `json:"requests"`
	Completed      int64             `json:"completed"`
	Failed         int64             `json:"failed"`
	MultiHop       int64             `json:"multi_hop"` // requests served through a composed chain
	QueueHighWater int               `json:"queue_high_water"`
	Shed           int64             `json:"shed"`                // admissions rejected by load shedding
	Retries        int64             `json:"retries"`             // synthesis retry attempts
	Degraded       int64             `json:"degraded"`            // requests served by partial translation
	Quarantined    int64             `json:"quarantined"`         // translators pulled by serve-time validation
	Coalesced      int64             `json:"coalesced,omitempty"` // requests served by sharing an in-flight translation
	DrainSeconds   float64           `json:"drain_seconds,omitempty"`
	FailureClasses map[string]int64  `json:"failure_classes,omitempty"`
	Breakers       map[string]string `json:"breakers,omitempty"` // non-closed circuit breakers by pair
	// Stream is the bounded-memory streaming path's slice of the
	// counters, including the memory governor's live state.
	Stream StreamStats `json:"stream"`
	// Tenants is the per-tenant slice of the counters above, keyed by
	// tenant id; anonymous traffic is not sliced.
	Tenants     map[string]TenantStats `json:"tenants,omitempty"`
	Cache       CacheStats             `json:"cache"`
	CachedPairs []string               `json:"cached_pairs,omitempty"`
	Uptime      time.Duration          `json:"uptime_ns"`
}

// Service is the long-running translation front end. It owns the
// translator cache, the multi-hop router, and a bounded worker pool;
// all methods are safe for concurrent use.
type Service struct {
	cfg      Config
	cache    *Cache
	router   *Router
	breakers *resilience.Set         // per-version-pair circuit breakers
	met      *serviceMetrics         // every counter Stats reads; never nil
	memgov   *resilience.MemGovernor // streaming-memory admission control
	jobs     chan *job
	fq       *tenant.FairQueue[*job] // replaces jobs when Config.Tenants is set
	wg       sync.WaitGroup          // workers
	senders  sync.WaitGroup          // in-flight enqueues, so drain can safely close(jobs)
	start    time.Time
	drained  chan struct{} // closed once the worker pool has fully drained

	watchStop chan struct{}  // stops the heap watchdog at drain
	watchWG   sync.WaitGroup // the watchdog goroutine, joined before drained closes

	jobEWMA   atomic.Int64 // smoothed job duration (ns) for deadline-aware admission
	serveSeed atomic.Int64 // serve-time validation trial seeds

	// Cross-pair synthesis accelerators (nil when the synth options
	// carry library overrides — the chaos seam must never leak poisoned
	// results between pairs).
	genCache *synth.GenCache
	hints    *synth.HintsRegistry

	mu             sync.Mutex
	closed         bool
	drainStart     time.Time
	drainSeconds   float64
	queueHighWater int
	supported      map[version.V]bool

	coMu    sync.Mutex
	flights map[string]*flight // in-flight coalescable translations by (pair, input) key
}

type job struct {
	ctx      context.Context
	pair     version.Pair
	module   *ir.Module
	tenant   string // fair-queue scheduling class ("" = anonymous)
	enqueued time.Time
	res      chan jobResult
}

type jobResult struct {
	module   *ir.Module
	route    []version.V
	origin   Origin
	degraded bool // served by TranslatePartial under pressure
	dropped  int  // unsupported sites a degraded translation dropped
	err      error
}

// New starts a service: workers spin up immediately and Close must be
// called to release them.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheDir, 0, cfg.Synth),
		met:       newServiceMetrics(cfg.Metrics),
		memgov:    resilience.NewMemGovernor(cfg.StreamMemBudget, cfg.StreamMaxWait),
		jobs:      make(chan *job, cfg.QueueDepth),
		start:     time.Now(),
		drained:   make(chan struct{}),
		watchStop: make(chan struct{}),
		supported: map[version.V]bool{},
		flights:   map[string]*flight{},
	}
	if cfg.Tenants != nil {
		cap := cfg.QueueDepth
		if t := s.shedThreshold(); t > 0 && t < cap {
			cap = t
		}
		s.fq = tenant.NewFairQueue[*job](cap, cfg.Tenants.Weight)
		s.fq.SetDepthObserver(s.met.tenantQueueDepth)
	}
	s.cache.met = s.met.cache
	s.cache.SetMaxBytes(cfg.CacheMaxBytes)
	if canonical := cfg.Synth.Getters == nil && cfg.Synth.Builders == nil; canonical {
		s.genCache = synth.NewGenCache()
		s.hints = synth.NewHintsRegistry()
		s.cache.opts.GenCache = s.genCache // disk hits generate through it too
	}
	for _, v := range cfg.Versions {
		s.supported[v] = true
	}
	s.breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
		Failures: cfg.BreakerFailures,
		Cooldown: cfg.BreakerCooldown,
		OnChange: func(key string, from, to resilience.State) {
			s.met.breakerChange(key, to)
		},
	})
	s.router = &Router{
		Versions: cfg.Versions,
		MaxHops:  cfg.MaxHops,
		Get:      s.hopTranslator,
		Breakers: s.breakers,
		met:      s.met.router,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Metrics != nil {
		s.watchWG.Add(1)
		go s.heapWatchdog()
	}
	return s
}

// Close drains the worker pool with no deadline. Pending jobs are
// completed; new Translate calls are rejected with a Draining
// rejection.
func (s *Service) Close() { _ = s.Drain(context.Background()) }

// Drain gracefully shuts the service down: admission stops at once
// (new requests get a 503-mapped Draining rejection), in-flight jobs
// are flushed, and the call returns when the pool is empty or ctx
// expires, whichever is first. The first caller starts the drain;
// every caller waits on it. On deadline expiry the workers keep
// draining in the background and a Budget-classed error reports how
// the wait ended.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	if first {
		s.drainStart = time.Now()
	}
	s.mu.Unlock()
	if first {
		go func() {
			// Workers keep consuming until every in-flight enqueue has
			// landed, so waiting senders cannot deadlock against a full
			// queue.
			s.senders.Wait()
			if s.fq != nil {
				s.fq.Close()
			} else {
				close(s.jobs)
			}
			s.wg.Wait()
			close(s.watchStop)
			s.watchWG.Wait()
			d := time.Since(s.drainStart)
			s.met.drainSeconds.ObserveDuration(d)
			s.mu.Lock()
			s.drainSeconds = d.Seconds()
			s.mu.Unlock()
			close(s.drained)
		}()
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain deadline expired: %w", failure.FromContext(ctx.Err()))
	}
}

// Cache exposes the service's translator cache.
func (s *Service) Cache() *Cache { return s.cache }

// Ready reports whether the service is currently able to accept work:
// nil when it is, a typed rejection explaining why not — Draining once
// a drain has started, Overload while the queue sits at or past the
// shed threshold. This is the /readyz verdict a load balancer polls,
// distinct from liveness: a draining or saturated daemon is alive but
// should receive no new traffic.
func (s *Service) Ready() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return resilience.DrainingRejection(time.Second, "service: draining")
	}
	if t := s.shedThreshold(); t >= 0 {
		// Conservative under fair queueing: total backlog at the
		// threshold means the busiest tenants are saturated, even though
		// a lightly loaded tenant's own queue could still admit.
		if pending := s.queueLen(); pending >= t {
			return resilience.Overloaded(s.estimatedWait(pending), "service: queue at shed threshold: %d jobs pending", pending)
		}
	}
	return nil
}

// Versions lists the versions the service accepts, ascending.
func (s *Service) Versions() []version.V {
	out := append([]version.V(nil), s.cfg.Versions...)
	version.Sort(out)
	return out
}

// Metrics returns the observability registry the service's
// instruments live in, nil when Config.DisableMetrics was set. The
// HTTP handler serves it at GET /metrics.
func (s *Service) Metrics() *obs.Registry {
	return s.met.reg
}

// Stats snapshots the service counters. They are the counters
// /metrics exports (plus a few with no series: Coalesced, the stream
// request counts and per-tenant StreamedBytes), read atomically one by
// one, so a snapshot taken under traffic may be skewed by the requests
// in flight. It keeps two invariants (see TestStatsSnapshotBounds):
// Requests is Completed+Failed as read, and the cache's per-outcome
// counters never sum past Lookups (see Cache.Stats).
func (s *Service) Stats() Stats {
	// Cache first: its events happen before the request-level record,
	// so snapshotting in the same order keeps the common reading
	// ("did the cache serve the requests counted here?") conservative.
	cacheStats := s.cache.Stats()
	m := s.met
	st := Stats{
		Completed:      m.reqOK.Value(),
		Failed:         m.reqErr.Value(),
		MultiHop:       m.multiHop.Value(),
		Shed:           m.shed.Value(),
		Retries:        m.retries.Value(),
		Degraded:       m.degraded.Value(),
		Quarantined:    m.quarantined.Value(),
		Coalesced:      m.coalesced.Value(),
		FailureClasses: m.failureClasses(),
		Stream: StreamStats{
			Requests: m.streamReqs.Value(),
			Failed:   m.streamFailed.Value(),
			BytesIn:  m.streamIn.Value(),
			BytesOut: m.streamOut.Value(),
		},
		Tenants: m.tenantStats(),
	}
	st.Requests = st.Completed + st.Failed
	s.mu.Lock()
	st.QueueHighWater = s.queueHighWater
	st.DrainSeconds = s.drainSeconds
	s.mu.Unlock()
	if s.fq != nil && st.Tenants != nil {
		for id, depth := range s.fq.Depths() {
			if ts, ok := st.Tenants[id]; ok {
				ts.QueueDepth = depth
				st.Tenants[id] = ts
			}
		}
	}
	st.Stream.fillGovernor(s.memgov.Stats())
	st.Cache = cacheStats
	for _, p := range s.cache.Pairs() {
		st.CachedPairs = append(st.CachedPairs, p.String())
	}
	sort.Strings(st.CachedPairs)
	st.Uptime = time.Since(s.start)
	if snap := s.breakers.Snapshot(); len(snap) > 0 {
		st.Breakers = map[string]string{}
		for k, v := range snap {
			st.Breakers[k] = v.String()
		}
	}
	return st
}

// Result is everything one translation produced.
type Result struct {
	Module *ir.Module
	// Route is the version route taken (length 2 for a direct
	// translation).
	Route []version.V
	// Degraded reports the translation was served by TranslatePartial
	// under queue pressure; DroppedSites counts the unsupported
	// constructs it dropped.
	Degraded     bool
	DroppedSites int
}

// Translate converts a module of version src to version tgt through
// the cache and, if no direct translator can be synthesized, a
// validated multi-hop route. It blocks until a worker picks the job up
// or ctx expires; queue-wait and execution both respect ctx and the
// per-job timeout, reporting expiry as an ErrBudget-classified error.
func (s *Service) Translate(ctx context.Context, src, tgt version.V, m *ir.Module) (*ir.Module, error) {
	r, err := s.TranslateResult(ctx, src, tgt, m)
	return r.Module, err
}

// TranslateRouted is Translate, also reporting the route taken (length
// 2 for a direct translation).
func (s *Service) TranslateRouted(ctx context.Context, src, tgt version.V, m *ir.Module) (*ir.Module, []version.V, error) {
	r, err := s.TranslateResult(ctx, src, tgt, m)
	return r.Module, r.Route, err
}

// TranslateResult is the full-fidelity translation entry point:
// Translate plus the route taken and the degradation outcome.
func (s *Service) TranslateResult(ctx context.Context, src, tgt version.V, m *ir.Module) (Result, error) {
	if err := s.admit(src, tgt, m); err != nil {
		s.record(ctx, nil, err)
		return Result{}, err
	}
	if src == tgt {
		route := []version.V{src, tgt}
		s.record(ctx, route, nil)
		return Result{Module: m, Route: route}, nil
	}
	j := &job{ctx: ctx, pair: version.Pair{Source: src, Target: tgt}, module: m, tenant: tenantOf(ctx), res: make(chan jobResult, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		var err error = resilience.DrainingRejection(time.Second, "service: draining, not admitting new work")
		s.record(ctx, nil, err)
		return Result{}, err
	}
	s.senders.Add(1)
	if d := s.queueLen() + 1; d > s.queueHighWater {
		s.queueHighWater = d
	}
	s.mu.Unlock()

	if err := s.shedCheck(ctx, j.tenant); err != nil {
		s.senders.Done()
		s.record(ctx, nil, err)
		return Result{}, err
	}
	j.enqueued = time.Now()
	if err := s.enqueue(ctx, j); err != nil {
		s.senders.Done()
		s.record(ctx, nil, err)
		return Result{}, err
	}
	s.senders.Done()
	s.met.queueDepth.Set(int64(s.queueLen()))
	select {
	case r := <-j.res:
		s.record(ctx, r.route, r.err)
		return Result{Module: r.module, Route: r.route, Degraded: r.degraded, DroppedSites: r.dropped}, r.err
	case <-ctx.Done():
		// The worker will still run the job; its result is discarded
		// (res is buffered).
		err := failure.FromContext(ctx.Err())
		s.record(ctx, nil, err)
		return Result{}, err
	}
}

// shedThreshold is the queue depth at which admission sheds, -1 when
// shedding is disabled.
func (s *Service) shedThreshold() int {
	switch {
	case s.cfg.ShedAt < 0:
		return -1
	case s.cfg.ShedAt == 0 || s.cfg.ShedAt > s.cfg.QueueDepth:
		return s.cfg.QueueDepth
	default:
		return s.cfg.ShedAt
	}
}

// shedCheck applies admission control before enqueueing: a queue at
// the shed threshold, or a caller deadline shorter than the estimated
// queue wait, is rejected immediately with a Retry-After hint rather
// than admitted to time out in line. Under fair queueing the depth
// test is per tenant — one tenant saturating its own queue does not
// shed another's admission.
func (s *Service) shedCheck(ctx context.Context, tenantID string) error {
	threshold := s.shedThreshold()
	if s.fq != nil {
		if threshold < 0 {
			threshold = s.cfg.QueueDepth // fair queueing always sheds: enqueue never blocks
		}
		if pending := s.fq.Depth(tenantID); pending >= threshold {
			s.recordShed(ctx)
			return resilience.Overloaded(s.estimatedWait(s.queueLen()), "service: overloaded: %d jobs queued for this tenant", pending)
		}
	} else {
		if threshold < 0 {
			return nil
		}
		if pending := len(s.jobs); pending >= threshold {
			s.recordShed(ctx)
			return resilience.Overloaded(s.estimatedWait(pending), "service: overloaded: %d jobs queued", pending)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := s.estimatedWait(s.queueLen()); est > 0 && time.Until(dl) < est {
			s.recordShed(ctx)
			return resilience.Overloaded(est, "service: deadline %s away but estimated wait is %s",
				time.Until(dl).Round(time.Millisecond), est.Round(time.Millisecond))
		}
	}
	return nil
}

// enqueue delivers the job to the worker pool. With shedding enabled
// the send never blocks — the shedCheck length test races with other
// senders, so a full queue here sheds too; with shedding disabled it
// blocks until a slot frees or ctx expires. The fair queue never
// blocks either way: a full per-tenant queue sheds that tenant.
func (s *Service) enqueue(ctx context.Context, j *job) error {
	if s.fq != nil {
		err := s.fq.Enqueue(j.tenant, j)
		if err == nil {
			return nil
		}
		if errors.Is(err, tenant.ErrQueueClosed) {
			return resilience.DrainingRejection(time.Second, "service: draining, not admitting new work")
		}
		s.recordShed(ctx)
		return resilience.Overloaded(s.estimatedWait(s.queueLen()), "service: overloaded: tenant queue full")
	}
	if s.shedThreshold() >= 0 {
		select {
		case s.jobs <- j:
			return nil
		default:
			s.recordShed(ctx)
			return resilience.Overloaded(s.estimatedWait(len(s.jobs)), "service: overloaded: queue full")
		}
	}
	select {
	case s.jobs <- j:
		return nil
	case <-ctx.Done():
		return failure.FromContext(ctx.Err())
	}
}

// estimatedWait predicts queue wait plus execution for a request that
// finds pending jobs ahead of it, from the EWMA of recent job
// durations. Zero (no opinion) until the first job completes.
func (s *Service) estimatedWait(pending int) time.Duration {
	ewma := time.Duration(s.jobEWMA.Load())
	if ewma <= 0 {
		return 0
	}
	return ewma + ewma*time.Duration(pending)/time.Duration(s.cfg.Workers)
}

// observeJob folds a completed job's duration into the admission EWMA
// (α = 1/8; a racing update may be lost, which is fine for an
// estimate).
func (s *Service) observeJob(d time.Duration) {
	prev := s.jobEWMA.Load()
	next := int64(d)
	if prev > 0 {
		next = (7*prev + int64(d)) / 8
	}
	s.jobEWMA.Store(next)
}

func (s *Service) recordShed(ctx context.Context) {
	s.met.shed.Inc()
	if id := tenantOf(ctx); id != "" {
		s.met.tenantMet(id).shed.Inc()
	}
}

// TextResult is TranslateTextResult's outcome.
type TextResult struct {
	Rendered     string
	Source       version.V // detected when the request omitted it
	Route        []version.V
	Degraded     bool
	DroppedSites int
}

// TranslateText is the textual pipeline: parse at src (or detect the
// version when src is the zero V), translate, write at tgt. It returns
// the output text, the detected source version, and the route.
func (s *Service) TranslateText(ctx context.Context, text string, src version.V, tgt version.V) (string, version.V, []version.V, error) {
	r, err := s.TranslateTextResult(ctx, text, src, tgt)
	return r.Rendered, r.Source, r.Route, err
}

// TranslateTextResult is TranslateText with the full translation
// outcome (degradation included).
func (s *Service) TranslateTextResult(ctx context.Context, text string, src version.V, tgt version.V) (TextResult, error) {
	var m *ir.Module
	var err error
	if !src.IsValid() {
		end := s.met.stageTimer(ctx, stageDetect)
		m, src, err = irtext.Detect(text, s.Versions())
		end()
		if err != nil {
			return TextResult{}, err
		}
	} else {
		end := s.met.stageTimer(ctx, stageParse)
		m, err = irtext.Parse(text, src)
		end()
		if err != nil {
			return TextResult{Source: src}, failure.Wrapf(failure.Parse, "service: reading %s IR: %w", src, err)
		}
	}
	if s.cfg.Tenants != nil {
		return s.coalesced(ctx, coalesceKey(src, tgt, text), func() (TextResult, error) {
			return s.translateParsed(ctx, src, tgt, m)
		})
	}
	return s.translateParsed(ctx, src, tgt, m)
}

// translateParsed is the post-parse tail of the textual pipeline:
// translate the module, render at the target version.
func (s *Service) translateParsed(ctx context.Context, src, tgt version.V, m *ir.Module) (TextResult, error) {
	r, err := s.TranslateResult(ctx, src, tgt, m)
	if err != nil {
		return TextResult{Source: src}, err
	}
	endWrite := s.met.stageTimer(ctx, stageWrite)
	rendered, err := irtext.NewWriter(tgt).WriteModule(r.Module)
	endWrite()
	if err != nil {
		return TextResult{Source: src, Route: r.Route}, failure.Wrapf(failure.Validation, "service: writing %s IR: %w", tgt, err)
	}
	return TextResult{Rendered: rendered, Source: src, Route: r.Route, Degraded: r.Degraded, DroppedSites: r.DroppedSites}, nil
}

// Detect parses text with every supported reader, newest first, and
// returns the module plus the accepting version (see irtext.Detect).
func (s *Service) Detect(text string) (*ir.Module, version.V, error) {
	return irtext.Detect(text, s.Versions())
}

// Warm synthesizes (or loads) the direct translator for a pair ahead
// of traffic. Cancelling ctx abandons the *wait* with a Budget-classed
// failure, not the work: an in-flight synthesis completes detached and
// still lands in the cache (see Cache.Get).
func (s *Service) Warm(ctx context.Context, src, tgt version.V) error {
	if err := s.admit(src, tgt, nil); err != nil {
		return err
	}
	_, err := s.hopTranslator(ctx, version.Pair{Source: src, Target: tgt})
	return err
}

// MatrixPairs plans the full version-pair matrix the service could be
// asked to serve: every ordered pair of distinct supported versions,
// both directions, nearest first (ascending version.Distance, ties in
// source-then-target order). Near pairs synthesize fastest and back the
// most multi-hop routes, so warming in this order buys coverage
// earliest.
func (s *Service) MatrixPairs() []version.Pair {
	vs := s.Versions()
	var out []version.Pair
	for _, src := range vs {
		for _, tgt := range vs {
			if src != tgt {
				out = append(out, version.Pair{Source: src, Target: tgt})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := version.Distance(out[i].Source, out[i].Target), version.Distance(out[j].Source, out[j].Target)
		if di != dj {
			return di < dj
		}
		if c := out[i].Source.Cmp(out[j].Source); c != 0 {
			return c < 0
		}
		return out[i].Target.Before(out[j].Target)
	})
	return out
}

// WarmMatrix feeds the full MatrixPairs plan through Warm, one pair at
// a time. It returns how many pairs are warm. Per-pair failures are
// reported to onPair (nil ok) and do not abort the sweep; ctx
// cancellation does, promptly, with a Budget-classed error (each Warm
// abandons only its wait — in-flight synthesis completes detached into
// the cache, see Warm).
func (s *Service) WarmMatrix(ctx context.Context, onPair func(p version.Pair, err error)) (int, error) {
	warmed := 0
	for _, p := range s.MatrixPairs() {
		if err := ctx.Err(); err != nil {
			return warmed, failure.FromContext(err)
		}
		err := s.Warm(ctx, p.Source, p.Target)
		if onPair != nil {
			onPair(p, err)
		}
		if err == nil {
			warmed++
		} else if ctx.Err() != nil {
			return warmed, failure.FromContext(ctx.Err())
		}
	}
	return warmed, nil
}

// admit validates a request's versions (and module version, when a
// module is supplied).
func (s *Service) admit(src, tgt version.V, m *ir.Module) error {
	if !s.supported[src] {
		return failure.Wrapf(failure.Unsupported, "service: unsupported source version %s", src)
	}
	if !s.supported[tgt] {
		return failure.Wrapf(failure.Unsupported, "service: unsupported target version %s", tgt)
	}
	if m != nil && m.Ver != src {
		return failure.Wrapf(failure.Unsupported, "service: module is version %s, request says %s", m.Ver, src)
	}
	return nil
}

// record counts a request's outcome, the tenant's included when the
// context carries an identity.
func (s *Service) record(ctx context.Context, route []version.V, err error) {
	s.met.outcome(tenantOf(ctx), route, err)
}

// worker executes queued jobs under the per-job deadline.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.nextJob()
		if !ok {
			return
		}
		if s.met.timed(j.ctx) {
			wait := time.Since(j.enqueued)
			s.met.stageDur(j.ctx, stageQueue, wait)
			s.met.queueWait.ObserveDuration(wait)
			s.met.queueDepth.Set(int64(s.queueLen()))
		}
		start := time.Now()
		j.res <- s.run(j)
		s.observeJob(time.Since(start))
	}
}

// run resolves a translator (direct, then routed) and translates.
func (s *Service) run(j *job) (res jobResult) {
	defer func() {
		if r := recover(); r != nil {
			res = jobResult{err: failure.Wrapf(failure.Validation, "service: internal panic: %v", r)}
		}
	}()
	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil { // expired while queued
		return jobResult{err: failure.FromContext(err)}
	}
	tr, origin, err := s.resolve(ctx, j.pair)
	if err != nil {
		return jobResult{err: err}
	}
	endTranslate := s.met.stageTimer(ctx, stageTranslate)
	out, err := tr.Translate(j.module)
	endTranslate()
	if err != nil {
		if r, ok := s.degrade(tr, origin, j.module, err); ok {
			return r
		}
		return jobResult{err: err}
	}
	if err := ctx.Err(); err != nil {
		return jobResult{err: failure.FromContext(err)}
	}
	if validate := s.serveValidator(); validate != nil {
		if verr := validate(j.module, out); verr != nil {
			return s.quarantineAndRetry(ctx, j.pair, j.module, tr, validate, verr)
		}
	}
	return jobResult{module: out, route: tr.Route(), origin: origin}
}

// degrade serves a partial translation in place of an Unsupported
// failure when configured and the queue is under pressure — shedding
// fidelity (dropped unsupported sites, reported in the response)
// instead of shedding the request.
func (s *Service) degrade(tr translator.ModuleTranslator, origin Origin, m *ir.Module, err error) (jobResult, bool) {
	if !s.cfg.DegradeUnderPressure || failure.ClassOf(err) != failure.Unsupported || !s.underPressure() {
		return jobResult{}, false
	}
	direct, ok := tr.(*translator.Translator)
	if !ok { // chains have no partial mode
		return jobResult{}, false
	}
	out, sites, perr := direct.TranslatePartial(m)
	if perr != nil {
		return jobResult{}, false
	}
	s.met.degraded.Inc()
	return jobResult{module: out, route: direct.Route(), origin: origin, degraded: true, dropped: len(sites)}, true
}

// underPressure reports a queue at least half full.
func (s *Service) underPressure() bool {
	return 2*s.queueLen() >= s.cfg.QueueDepth
}

// serveValidator returns the serve-time differential validator, nil
// when disabled.
func (s *Service) serveValidator() func(src, out *ir.Module) error {
	if s.cfg.ServeValidate != nil {
		return s.cfg.ServeValidate
	}
	if s.cfg.ServeTrials <= 0 {
		return nil
	}
	trials := s.cfg.ServeTrials
	return func(src, out *ir.Module) error {
		rep := tvalid.Validate(src, out, tvalid.Options{Trials: trials, Seed: s.serveSeed.Add(1)})
		if !rep.OK() {
			return failure.Wrapf(failure.Validation, "service: serve-time validation diverged: %s", rep)
		}
		return nil
	}
}

// quarantineAndRetry handles a serve-time validation failure: the
// cached translator is a proven liar, so its artifact is quarantined
// (never served or re-imported again), the pair is resynthesized once,
// and the fresh translator must pass the same validation before its
// output is served. Chains are not quarantined — each hop translator
// passed its own validation, so the divergence indicts the
// composition, which is per-request state; the failure is reported
// as-is.
func (s *Service) quarantineAndRetry(ctx context.Context, pair version.Pair, m *ir.Module, tr translator.ModuleTranslator, validate func(src, out *ir.Module) error, verr error) jobResult {
	if _, ok := tr.(*translator.Translator); !ok {
		return jobResult{err: failure.Wrap(failure.Validation, verr)}
	}
	s.met.quarantined.Inc()      // Cache.Quarantine separately counts the cache event
	_ = s.cache.Quarantine(pair) // best effort: the memory entry is gone either way
	fresh, _, err := s.cachedTranslator(ctx, pair)
	if err != nil {
		return jobResult{err: fmt.Errorf("service: resynthesis after quarantining %s failed: %w (quarantined for: %v)", pair, err, verr)}
	}
	out, err := fresh.Translate(m)
	if err != nil {
		return jobResult{err: err}
	}
	if err := validate(m, out); err != nil {
		return jobResult{err: failure.Wrapf(failure.Validation,
			"service: translator for %s still diverges after quarantine and resynthesis: %v (first divergence: %v)", pair, err, verr)}
	}
	return jobResult{module: out, route: fresh.Route(), origin: OriginSynth}
}

// resolve produces a ModuleTranslator for the pair: the cached direct
// translator when it synthesizes, otherwise a validated multi-hop
// chain.
func (s *Service) resolve(ctx context.Context, pair version.Pair) (translator.ModuleTranslator, Origin, error) {
	tr, origin, directErr := s.cachedTranslator(ctx, pair)
	if directErr == nil {
		return tr, origin, nil
	}
	if failure.ClassOf(directErr) == failure.Parse || ctx.Err() != nil || s.cfg.MaxHops == 1 {
		return nil, origin, directErr
	}
	s.router.MarkBroken(pair, directErr)
	endRoute := s.met.stageTimer(ctx, stageRoute)
	ch, routeErr := s.router.Route(ctx, pair.Source, pair.Target)
	endRoute()
	if routeErr != nil {
		return nil, origin, fmt.Errorf("%w (direct synthesis failed: %v)", routeErr, directErr)
	}
	// Bind per-hop observation to this request: chains are composed per
	// request, so the closure may capture the request trace.
	if s.met.timed(ctx) {
		tr, hops := obs.TraceFrom(ctx), s.met.hopSeconds
		ch.OnHop = func(p version.Pair, d time.Duration) {
			tr.Add(stageHop, d)
			hops.ObserveDuration(d)
		}
	}
	return ch, OriginSynth, nil
}

// hopTranslator is the cache-backed edge acquisition shared by direct
// requests and the router.
func (s *Service) hopTranslator(ctx context.Context, pair version.Pair) (*translator.Translator, error) {
	tr, _, err := s.cachedTranslator(ctx, pair)
	return tr, err
}

// cachedTranslator gets the direct translator for a pair through the
// cache, bounding synthesis by the context deadline. The lookup and
// the nested synthesis report as disjoint stages: "cache" is the Get
// call minus the time spent inside the synthesize callback, "synth"
// is the callback itself (zero when the cache hit).
//
// The synthesize callback is the single choke point every translator
// acquisition funnels through (direct requests, router edges, warm-up),
// so the pair's circuit breaker and the retry policy live here: an
// open breaker fails the miss fast with the fault that opened it, a
// granted probe or closed breaker runs synthesis under the retry
// policy, and the outcome advances the breaker.
func (s *Service) cachedTranslator(ctx context.Context, pair version.Pair) (*translator.Translator, Origin, error) {
	observe := s.met.timed(ctx)
	var start time.Time
	var synthDur atomic.Int64 // written by the detached cache leader
	if observe {
		start = time.Now()
	}
	tr, org, err := s.cache.Get(ctx, pair, func() (*synth.Result, error) {
		if observe {
			synthStart := time.Now()
			defer func() { synthDur.Store(int64(time.Since(synthStart))) }()
		}
		key := pair.String()
		if err := s.breakers.Allow(key); err != nil {
			return nil, err // fail fast; the opening fault's class is preserved
		}
		res, err := resilience.Retry(ctx, s.retryPolicy(), func() (*synth.Result, error) {
			return s.synthesizeOnce(ctx, pair)
		})
		if err != nil {
			s.breakers.Fail(key, err)
			return nil, err
		}
		s.breakers.Succeed(key)
		s.met.recordSynth(res.Stats)
		return res, nil
	})
	if observe {
		sd := time.Duration(synthDur.Load())
		s.met.stageDur(ctx, stageCache, time.Since(start)-sd)
		if sd > 0 {
			s.met.stageDur(ctx, stageSynth, sd)
		}
	}
	return tr, org, err
}

// retryPolicy is the synthesis retry policy: transient classes only
// (never Parse/Unsupported, and a deadline expiring mid-retry
// surfaces Budget), each retry counted.
func (s *Service) retryPolicy() resilience.RetryPolicy {
	return resilience.RetryPolicy{
		Max: s.cfg.MaxRetries,
		OnRetry: func(attempt int, err error, sleep time.Duration) {
			s.met.retries.Inc()
		},
	}
}

// synthesizeOnce runs the synthesis function once with the context
// deadline threaded into the per-test budget, converting panics to
// Validation-classed errors so the retry loop and breaker see a
// classifiable failure rather than an unwinding goroutine.
func (s *Service) synthesizeOnce(ctx context.Context, pair version.Pair) (res *synth.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, failure.Wrapf(failure.Validation, "service: panic synthesizing %s: %v", pair, r)
		}
	}()
	opts := s.cfg.Synth
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= 0 {
			return nil, failure.FromContext(context.DeadlineExceeded)
		}
		if opts.TestDeadline == 0 || opts.TestDeadline > remain {
			opts.TestDeadline = remain
		}
	}
	// Thread the cross-pair accelerators through: the generation cache
	// is shared by every pair, the hints come from the nearest
	// already-synthesized neighbor. Both are nil-safe and nil when the
	// chaos seam overrides the libraries.
	opts.GenCache = s.genCache
	opts.Hints = s.hints.Nearest(pair)
	out, err := s.cfg.SynthFn(pair, opts)
	if err != nil {
		if ctx.Err() != nil {
			// The deadline expired while synthesis ran: the budget is at
			// fault, not the pair — surface Budget so the breaker does
			// not trip on a slow caller.
			return nil, fmt.Errorf("service: synthesizing %s under an expired deadline: %w (synth said: %v)", pair, failure.FromContext(ctx.Err()), err)
		}
		return nil, failure.Wrapf(failure.Synthesis, "service: synthesizing %s: %w", pair, err)
	}
	// A completed pair warm-starts its neighbors.
	s.hints.Store(out.Hints(opts))
	return out, nil
}
