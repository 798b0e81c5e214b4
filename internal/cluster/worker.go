package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/version"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID is the worker's stable identity; it anchors rendezvous
	// placement, so it should survive restarts (default: the advertised
	// address, which is stable enough for fixed fleets).
	ID string
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Cache stores the worker's artifacts and serves them to peers. It
	// also deduplicates: a job for a pair the worker already holds is
	// answered from disk without re-synthesis. Required.
	Cache *service.Cache
	// SynthFn produces a translator for a pair (default
	// service.DefaultSynthFn; tests inject instrumented ones).
	SynthFn service.SynthFn
	// Opts are the synthesis options; their fingerprint must match the
	// coordinator's or every job is refused as a Mismatch.
	Opts synth.Options
	// JobTimeout bounds one synthesis (default 5m).
	JobTimeout time.Duration
	// Client performs coordinator-bound HTTP. Long-polls ride it, so its
	// timeout must exceed the coordinator's PollWait (default: 2m).
	Client *http.Client
	// Logf, when set, receives operational one-liners.
	Logf func(format string, args ...any)
}

// WorkerStats counts a worker's lifetime job outcomes (atomic, readable
// live from tests).
type WorkerStats struct {
	JobsRun    atomic.Int64 // jobs leased and executed
	JobsOK     atomic.Int64 // completed with an artifact
	JobsFailed atomic.Int64 // completed with a classified error
	Mismatches atomic.Int64 // refused for fingerprint skew
}

// Worker is one fleet member: it registers with the coordinator, pulls
// synthesis jobs over long-polls, synthesizes into its own cache, and
// serves the resulting artifacts to the coordinator and peers from its
// own listener.
type Worker struct {
	cfg      WorkerConfig
	addr     atomic.Value // string; the advertised listener address
	draining atomic.Bool
	stats    WorkerStats
}

// NewWorker builds a worker; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Cache == nil {
		return nil, errors.New("cluster: worker needs a cache")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.SynthFn == nil {
		cfg.SynthFn = service.DefaultSynthFn
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 5 * time.Minute
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	w := &Worker{cfg: cfg}
	w.addr.Store("")
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Stats exposes the live counters.
func (w *Worker) Stats() *WorkerStats { return &w.stats }

// Handler returns the worker's own HTTP surface — the listener it
// advertises in registration. /readyz is the coordinator's heartbeat
// probe; /cluster/v1/artifact is the peer-exchange endpoint, serving
// only fully-persisted artifacts (Cache.ReadArtifact reads nothing but
// the fsynced, renamed final path, so a fetch can never observe a torn
// write).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, r *http.Request) {
		if w.draining.Load() {
			rw.Header().Set("Retry-After", "1")
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "worker draining"})
			return
		}
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ready")
	})
	mux.HandleFunc("/cluster/v1/artifact", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			rw.Header().Set("Allow", http.MethodGet)
			writeJSON(rw, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
			return
		}
		q := r.URL.Query()
		pair, err := parsePair(q.Get("source"), q.Get("target"))
		if err != nil {
			writeJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		// The key is part of the request so a fingerprint disagreement is
		// a loud 409, not a silently-wrong artifact the caller then burns
		// CPU rejecting.
		if want := q.Get("key"); want != "" && want != w.cfg.Cache.Key(pair) {
			writeJSON(rw, http.StatusConflict, map[string]string{"error": "fingerprint mismatch (registry skew)"})
			return
		}
		blob, _, err := w.cfg.Cache.ReadArtifact(pair)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				writeJSON(rw, http.StatusNotFound, map[string]string{"error": "no artifact for pair"})
				return
			}
			writeJSON(rw, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(blob)
	})
	return mux
}

func parsePair(src, tgt string) (version.Pair, error) {
	s, err := version.Parse(src)
	if err != nil {
		return version.Pair{}, fmt.Errorf("bad source: %w", err)
	}
	t, err := version.Parse(tgt)
	if err != nil {
		return version.Pair{}, fmt.Errorf("bad target: %w", err)
	}
	return version.Pair{Source: s, Target: t}, nil
}

// Run registers with the coordinator (advertising addr as the worker's
// own listener) and pulls jobs until ctx is cancelled, then leaves
// gracefully so leased jobs requeue immediately. Transient coordinator
// outages are ridden out with backoff and re-registration.
func (w *Worker) Run(ctx context.Context, addr string) error {
	if w.cfg.ID == "" {
		w.cfg.ID = addr
	}
	w.addr.Store(addr)
	pollMS := int64(5000)
	registered := false
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		if !registered {
			resp, err := w.register(ctx, addr)
			if err != nil {
				w.logf("cluster: worker %s register: %v", w.cfg.ID, err)
				if !sleep(ctx, backoff) {
					break
				}
				backoff = growBackoff(backoff)
				continue
			}
			registered = true
			backoff = 50 * time.Millisecond
			if resp.PollMS > 0 {
				pollMS = resp.PollMS
			}
			w.logf("cluster: worker %s registered with %s", w.cfg.ID, w.cfg.Coordinator)
		}
		job, status, err := w.poll(ctx, pollMS)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				break
			}
			w.logf("cluster: worker %s poll: %v", w.cfg.ID, err)
			registered = false // coordinator may have restarted; re-announce
			if !sleep(ctx, backoff) {
				break
			}
			backoff = growBackoff(backoff)
		case status == http.StatusConflict:
			registered = false // coordinator forgot us
		case job != nil:
			w.runJob(ctx, job)
		}
	}
	// Graceful leave on the way out (fresh context: ctx is already done).
	w.draining.Store(true)
	leaveCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.post(leaveCtx, "/cluster/v1/leave", LeaveRequest{ID: w.cfg.ID}, nil)
	return ctx.Err()
}

func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func growBackoff(d time.Duration) time.Duration {
	if d *= 2; d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (w *Worker) register(ctx context.Context, addr string) (*RegisterResponse, error) {
	var resp RegisterResponse
	if err := w.post(ctx, "/cluster/v1/register", RegisterRequest{ID: w.cfg.ID, Addr: addr}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (w *Worker) poll(ctx context.Context, waitMS int64) (*Job, int, error) {
	req := PollRequest{ID: w.cfg.ID, WaitMS: waitMS}
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+"/cluster/v1/poll", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.cfg.Client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode == http.StatusConflict {
		return nil, http.StatusConflict, nil
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, hresp.StatusCode, fmt.Errorf("poll: HTTP %d", hresp.StatusCode)
	}
	var resp PollResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, hresp.StatusCode, err
	}
	return resp.Job, hresp.StatusCode, nil
}

// runJob executes one assignment and reports the outcome. The
// worker's cache is the unit of work conservation: GetResult
// deduplicates against concurrent local traffic and persists the
// artifact to the fsynced path peers fetch from.
func (w *Worker) runJob(ctx context.Context, job *Job) {
	w.stats.JobsRun.Add(1)
	comp := CompleteRequest{ID: job.ID, WorkerID: w.cfg.ID}
	pair, err := parsePair(job.Source, job.Target)
	if err != nil {
		comp.Error, comp.Class = err.Error(), failure.Parse.Error()
		w.stats.JobsFailed.Add(1)
		w.complete(ctx, comp)
		return
	}
	// Fingerprint agreement first: if this worker's registry surface
	// hashes differently, synthesizing would only produce an artifact
	// the coordinator must reject on ingest. Refuse loudly instead.
	if got := w.cfg.Cache.Key(pair); got != job.Key {
		w.logf("cluster: worker %s refusing %s: fingerprint %s != coordinator's %s", w.cfg.ID, pair, got[:8], job.Key[:min(8, len(job.Key))])
		comp.Mismatch = true
		w.stats.Mismatches.Add(1)
		w.complete(ctx, comp)
		return
	}
	jctx, cancel := context.WithTimeout(ctx, w.cfg.JobTimeout)
	defer cancel()
	res, _, err := w.cfg.Cache.GetResult(jctx, pair, func() (*synth.Result, error) {
		return w.cfg.SynthFn(pair, w.cfg.Opts)
	})
	if err != nil {
		if ctx.Err() != nil {
			// The worker itself is dying, and its abandonment error says
			// nothing about the pair. Stay silent — the coordinator's
			// probe/lease machinery steals the job for the next replica,
			// which is exactly what a crash (no chance to report) gets.
			return
		}
		comp.Error = err.Error()
		if class := failure.ClassOf(err); class != nil {
			comp.Class = class.Error()
		}
		w.stats.JobsFailed.Add(1)
		w.complete(ctx, comp)
		return
	}
	// Ship the persisted artifact when the cache has one (byte-identical
	// to what peers would fetch); fall back to a fresh export for
	// memory-only caches.
	blob, _, rerr := w.cfg.Cache.ReadArtifact(pair)
	if rerr != nil {
		blob, rerr = res.ExportWithOptions(w.cfg.Opts)
	}
	if rerr != nil {
		comp.Error, comp.Class = rerr.Error(), failure.Synthesis.Error()
		w.stats.JobsFailed.Add(1)
		w.complete(ctx, comp)
		return
	}
	comp.Artifact = blob
	w.stats.JobsOK.Add(1)
	w.complete(ctx, comp)
}

// complete reports a job outcome; a completion races the worker's own
// shutdown, so a best-effort fresh deadline is used once ctx is gone
// (the coordinator's lease janitor covers a lost report either way).
func (w *Worker) complete(ctx context.Context, comp CompleteRequest) {
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	if err := w.post(ctx, "/cluster/v1/complete", comp, nil); err != nil {
		w.logf("cluster: worker %s complete %s: %v", w.cfg.ID, comp.ID, err)
	}
}

func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
