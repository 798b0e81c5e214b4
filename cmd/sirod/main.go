// Command sirod is the Siro translation daemon: a long-running HTTP
// service over the synthesize→translate→validate pipeline with a
// content-addressed translator cache and multi-hop version routing.
//
//	sirod -addr :8347 -cache /var/cache/siro
//
//	curl -s localhost:8347/v1/translate -d '{"source":"auto","target":"3.6","ir":"..."}'
//	curl -sN --data-binary @big.ll -H 'Content-Type: text/plain' \
//	     'localhost:8347/v1/translate?source=12.0&target=3.6'    # streams, bounded memory
//	curl -s localhost:8347/v1/stats
//	curl -s localhost:8347/healthz
//	curl -s localhost:8347/metrics
//
// A translator is synthesized at most once per (source, target,
// API-registry fingerprint): concurrent requests for the same uncached
// pair share one synthesis, artifacts persist in the cache directory
// across restarts, and pairs with no direct translator are served
// through a differentially validated multi-hop route.
//
// Several daemons may share one -cache directory: artifacts are whole
// files named by their content address, so a pair one daemon
// synthesized is a disk hit for every other.
//
//	sirod -addr :8347 -cache /shared/siro -auto-warm
//	sirod -addr :8349 -cache /shared/siro
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/version"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	cacheDir := flag.String("cache", "", "translator artifact cache directory (empty: in-memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "on-disk artifact budget: past it the least-recently-hit artifacts are GC'd (0: unbounded)")
	workers := flag.Int("workers", 4, "translation worker-pool size")
	queue := flag.Int("queue", 64, "pending-job queue depth")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job deadline (0 disables)")
	maxHops := flag.Int("max-hops", 3, "maximum translator hops for multi-hop routing (1 disables routing)")
	warm := flag.String("warm", "", "comma-separated src>tgt pairs to synthesize before serving, e.g. 12.0>3.6,17.0>3.6")
	autoWarm := flag.Bool("auto-warm", false, "warm the full version-pair matrix in the background after startup, nearest pairs first, up to GOMAXPROCS pairs at once")
	maxBody := flag.Int64("max-body", service.DefaultMaxBodyBytes, "maximum /v1/translate request body in bytes (negative disables the bound); streaming requests are exempt — see -stream-mem-budget")
	streamThreshold := flag.Int64("stream-threshold", service.DefaultStreamThreshold, "text/* /v1/translate bodies at or above this size stream function-at-a-time in bounded memory (negative: stream every text request)")
	streamMemBudget := flag.Int64("stream-mem-budget", 0, "process-wide cap on bytes held by in-flight streaming translations; past it streams park briefly, then 429 with Retry-After (0: unlimited)")
	streamMaxWait := flag.Duration("stream-max-wait", 5*time.Second, "longest a streaming translation parks waiting for -stream-mem-budget headroom before it is rejected")
	traceLog := flag.String("trace-log", "", "append one JSON line per slow translate request to this file (see -slow)")
	slow := flag.Duration("slow", time.Second, "requests at or above this wall time go to -trace-log (0 logs every request)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	noMetrics := flag.Bool("no-metrics", false, "disable the metrics registry, /metrics, the latency histograms and the heap watchdog; /v1/stats keeps counting")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT: stop admission, flush in-flight jobs, then exit")
	maxRetries := flag.Int("max-retries", 2, "transient synthesis failures retried with jittered backoff before the pair's breaker advances")
	shedQueue := flag.Int("shed-queue", 0, "queue depth at which admission sheds with 429 + Retry-After (0: shed only when -queue is full, negative: block instead of shedding); with -tenants it bounds each tenant's own queue, which always sheds")
	breakerFailures := flag.Int("breaker-failures", 1, "consecutive synthesis/validation failures that open a version pair's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "base open→half-open breaker cooldown (jittered, grows on failed probes)")
	serveTrials := flag.Int("serve-validate", 0, "differential trials re-validating each direct translation before it is served; a diverging cached translator is quarantined and resynthesized (0 disables)")
	degrade := flag.Bool("degrade", false, "serve partial translations instead of failing Unsupported while the queue is at least half full")
	journalDir := flag.String("journal", "", "durable job journal directory: enables POST /v1/batch + GET /v1/jobs/{id} and crash recovery (empty: async API off)")
	journalSegBytes := flag.Int64("journal-segment-bytes", 4<<20, "journal active-segment size that triggers a checkpoint (compaction + old-segment GC)")
	jobRunners := flag.Int("job-runners", 2, "goroutines draining the async job queue (each job still passes normal admission)")
	pollTimeout := flag.Duration("poll-timeout", 30*time.Second, "upper bound on GET /v1/jobs/{id}?wait= long-polls")
	tenantsFile := flag.String("tenants", "", "multi-tenant gateway config (JSON): API keys, weights, quotas; turns on weighted (deficit-round-robin) fair queueing and cross-tenant coalescing; SIGHUP hot-reloads it (empty: no gateway, anonymous access, one FIFO queue)")
	defaultQuota := flag.Float64("default-quota", 0, "default per-tenant rate limit in req/s for tenants that omit rate_per_sec (0: unlimited)")
	flag.Parse()

	var reg *obs.Registry
	if !*noMetrics {
		reg = obs.NewRegistry()
	}

	// The tenant registry exists before the service: it switches the
	// service to fair queueing and coalescing, and its weights are the
	// fair queue's scheduling input.
	var registry *tenant.Registry
	if *tenantsFile != "" {
		tenants, err := tenant.LoadFile(*tenantsFile)
		if err != nil {
			log.Fatalf("sirod: -tenants: %v", err)
		}
		registry = tenant.NewRegistry(tenants, tenant.Defaults{RatePerSec: *defaultQuota})
		log.Printf("sirod: gateway enabled with %d tenant(s) from %s", registry.Len(), *tenantsFile)
	}

	svc := service.New(service.Config{
		CacheDir:             *cacheDir,
		CacheMaxBytes:        *cacheMax,
		Workers:              *workers,
		QueueDepth:           *queue,
		JobTimeout:           *timeout,
		MaxHops:              *maxHops,
		Metrics:              reg,
		DisableMetrics:       *noMetrics,
		MaxRetries:           *maxRetries,
		ShedAt:               *shedQueue,
		BreakerFailures:      *breakerFailures,
		BreakerCooldown:      *breakerCooldown,
		ServeTrials:          *serveTrials,
		DegradeUnderPressure: *degrade,
		StreamMemBudget:      *streamMemBudget,
		StreamMaxWait:        *streamMaxWait,
		// Nil for anonymous deployments, which keep the FIFO queue and
		// their exact request-per-translation semantics.
		Tenants: registry,
	})
	defer svc.Close()

	// Journal recovery runs before the listener opens: replayed jobs are
	// re-queued (or already terminal) by the time the first request can
	// arrive, so recovered state never races live traffic.
	var jobs *service.Jobs
	if *journalDir != "" {
		js, rec, err := service.NewJobs(svc, service.JobsConfig{
			Dir:          filepath.Join(*journalDir, "jobs"),
			SegmentBytes: *journalSegBytes,
			Runners:      *jobRunners,
			Metrics:      reg,
			Logf:         log.Printf,
			JobQuota:     registry.MaxJobs,
		})
		if err != nil {
			log.Fatalf("sirod: job journal: %v", err)
		}
		jobs = js
		defer jobs.Close()
		log.Printf("sirod: journal recovered %d record(s) (%d dropped) -> %d job(s), %d resumed, %d evicted in %.3fs",
			rec.Records, rec.Dropped, rec.Jobs, rec.Resumed, rec.Evicted, rec.Elapsed.Seconds())
	}

	opts := service.HandlerOpts{MaxBodyBytes: *maxBody, Pprof: *pprofOn, Jobs: jobs, PollTimeout: *pollTimeout, StreamThreshold: *streamThreshold}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("sirod: -trace-log: %v", err)
		}
		defer f.Close()
		opts.SlowLog = obs.NewSlowLog(f, *slow)
	}

	if *warm != "" {
		for _, spec := range strings.Split(*warm, ",") {
			srcs, tgts, ok := strings.Cut(strings.TrimSpace(spec), ">")
			if !ok {
				log.Fatalf("sirod: bad -warm entry %q (want src>tgt)", spec)
			}
			src, err := version.Parse(srcs)
			if err != nil {
				log.Fatalf("sirod: -warm: %v", err)
			}
			tgt, err := version.Parse(tgts)
			if err != nil {
				log.Fatalf("sirod: -warm: %v", err)
			}
			start := time.Now()
			if err := svc.Warm(context.Background(), src, tgt); err != nil {
				log.Fatalf("sirod: warming %s->%s: %v", src, tgt, err)
			}
			log.Printf("sirod: warmed %s->%s in %v", src, tgt, time.Since(start).Round(time.Millisecond))
		}
	}

	var gw *tenant.Gateway
	if registry != nil {
		gw = tenant.NewGateway(tenant.GatewayConfig{Registry: registry, Metrics: reg, Logf: log.Printf})
		opts.GatewayStats = gw.Stats
	}
	handler := service.NewHandler(svc, opts)
	if gw != nil {
		handler = gw.Wrap(handler)
		// SIGHUP hot-reloads the tenants file: retained tenants keep
		// their bucket levels and in-flight counts, removed keys stop
		// authenticating on the next request, in-flight work finishes.
		hupc := make(chan os.Signal, 1)
		signal.Notify(hupc, syscall.SIGHUP)
		go func() {
			for range hupc {
				tenants, err := tenant.LoadFile(*tenantsFile)
				if err != nil {
					log.Printf("sirod: SIGHUP: keeping previous tenants: %v", err)
					continue
				}
				registry.Replace(tenants)
				log.Printf("sirod: SIGHUP: reloaded %d tenant(s) from %s", registry.Len(), *tenantsFile)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sirod: listen %s: %v", *addr, err)
	}
	server := &http.Server{Handler: handler}
	// One signal channel, registered before the listener is announced,
	// counts shutdown requests: the first starts the graceful drain, any
	// later one means the operator wants out NOW — exit immediately and
	// let journal recovery resume unfinished jobs next boot. Registering
	// once up front (rather than adding a second handler inside the
	// drain branch) closes the race where a quick second signal lands
	// before a busy main goroutine reaches the drain code.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 8)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Printf("sirod: %v: starting graceful drain (send again to force exit)", s)
		cancel()
		s = <-sigc
		log.Printf("sirod: second signal %v: forced exit (journal recovery resumes unfinished jobs)", s)
		os.Exit(2)
	}()

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	log.Printf("sirod: serving on %s (cache %q, %d workers, max %d hops)",
		ln.Addr(), *cacheDir, *workers, *maxHops)

	if *autoWarm {
		go func() {
			start := time.Now()
			n, err := svc.WarmMatrix(ctx, func(p version.Pair, err error) {
				if err != nil {
					log.Printf("sirod: auto-warm %s->%s: %v", p.Source, p.Target, err)
				}
			})
			if err != nil {
				log.Printf("sirod: auto-warm stopped after %d pairs: %v", n, err)
				return
			}
			log.Printf("sirod: auto-warm finished %d pairs in %v", n, time.Since(start).Round(time.Millisecond))
		}()
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("sirod: %v", err)
		}
	case <-ctx.Done():
		// Graceful drain: stop admitting (in-flight requests keep their
		// workers; new ones get 503 + Retry-After while the listener is
		// still up), flush the queue within the drain deadline, then
		// close the HTTP server.
		log.Printf("sirod: draining (deadline %v)", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		// Async jobs drain first: they still need service admission to
		// run, and svc.Drain closes it. Whatever misses the deadline is
		// journaled and resumes on the next boot.
		if jobs != nil {
			if err := jobs.Drain(drainCtx); err != nil {
				log.Printf("sirod: %v", err)
			}
		}
		if err := svc.Drain(drainCtx); err != nil {
			log.Printf("sirod: drain: %v", err)
		}
		cancel()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			log.Printf("sirod: shutdown: %v", err)
		}
		log.Printf("sirod: drained in %.3fs", svc.Stats().DrainSeconds)
	}
	st := svc.Stats()
	fmt.Printf("sirod: served %d requests (%d completed, %d failed, %d multi-hop); cache: %d memory hits, %d disk hits, %d synthesized, %d deduplicated\n",
		st.Requests, st.Completed, st.Failed, st.MultiHop,
		st.Cache.MemoryHits, st.Cache.DiskHits, st.Cache.Synthesized, st.Cache.Deduplicated)
}
