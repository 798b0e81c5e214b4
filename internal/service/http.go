package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tenant"
	"repro/internal/version"
)

// The JSON API served by cmd/sirod:
//
//	POST /v1/translate  {"source":"12.0","target":"3.6","ir":"..."}
//	                    source "auto" (or omitted) detects the version.
//	GET  /v1/stats      service counters
//	GET  /v1/versions   supported versions
//	GET  /healthz       liveness
//	GET  /readyz        readiness: 503 while draining or past the shed threshold
//	GET  /metrics       Prometheus text exposition (unless disabled)
//	GET  /debug/pprof/  runtime profiles (only with HandlerOpts.Pprof)
//
// Every endpoint rejects other methods with 405 and an Allow header.
// Errors come back as {"error": "...", "class": "...", "exit_code": n}
// with the HTTP status mapped from the failure class, so an HTTP
// client sees the same taxonomy a CLI user does.

// DefaultMaxBodyBytes bounds the /v1/translate request body: large
// enough for any real module in the corpus's weight class, small
// enough that a misbehaving client cannot balloon the daemon's memory.
const DefaultMaxBodyBytes = 4 << 20

// DefaultStreamThreshold is the body size at which a streaming-eligible
// /v1/translate request switches from the buffered pipeline to true
// function-at-a-time streaming.
const DefaultStreamThreshold = 256 << 10

// TranslateRequest is the body of POST /v1/translate.
type TranslateRequest struct {
	// Source is the input IR version, "auto"/"" to detect.
	Source string `json:"source"`
	// Target is the output IR version.
	Target string `json:"target"`
	// IR is the textual IR to translate.
	IR string `json:"ir"`
}

// TranslateResponse is the success body of POST /v1/translate.
type TranslateResponse struct {
	Source  string      `json:"source"` // detected or echoed
	Target  string      `json:"target"`
	Route   []string    `json:"route"` // versions traversed; >2 entries means multi-hop
	IR      string      `json:"ir"`
	Elapsed int64       `json:"elapsed_ns"`
	Stages  []obs.Stage `json:"stages,omitempty"` // per-stage latency breakdown
	// Degraded marks a partial translation served under queue pressure;
	// DroppedSites counts the unsupported constructs it dropped.
	Degraded     bool `json:"degraded,omitempty"`
	DroppedSites int  `json:"dropped_sites,omitempty"`
}

// ErrorResponse is the error body of every endpoint.
type ErrorResponse struct {
	Error    string `json:"error"`
	Class    string `json:"class,omitempty"`
	ExitCode int    `json:"exit_code"`
}

// httpStatus maps a failure class to an HTTP status: malformed input
// is the client's fault, an unsupported construct is semantically
// unprocessable, an exhausted budget asks the client to retry later,
// and synthesis/validation failures are the service's. Typed admission
// rejections refine the Budget mapping: load shedding is 429 (back off
// and retry here), draining is 503 (fail over); both carry Retry-After
// (added in writeError).
func httpStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	var rej *resilience.Rejection
	if errors.As(err, &rej) {
		// Overload and Quota both mean "you, retry here, later" — 429;
		// Draining means "this instance is going away" — 503.
		if rej.Kind == resilience.Overload || rej.Kind == resilience.Quota {
			return http.StatusTooManyRequests
		}
		return http.StatusServiceUnavailable
	}
	switch failure.ClassOf(err) {
	case failure.Parse:
		return http.StatusBadRequest
	case failure.Auth:
		return http.StatusUnauthorized
	case failure.Unsupported:
		return http.StatusUnprocessableEntity
	case failure.Budget:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// HandlerOpts tunes the HTTP surface beyond the core API.
type HandlerOpts struct {
	// MaxBodyBytes caps the /v1/translate request body; 0 means
	// DefaultMaxBodyBytes, negative disables the bound.
	MaxBodyBytes int64
	// SlowLog, when set, receives one JSON line per translate request
	// whose wall time crosses the log's threshold.
	SlowLog *obs.SlowLog
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost CPU, so enabling them is a
	// deliberate operator action (the -pprof flag).
	Pprof bool
	// DisableMetricsEndpoint hides /metrics even when the service has a
	// registry.
	DisableMetricsEndpoint bool
	// Jobs mounts the async/batch API (POST /v1/batch, GET /v1/jobs,
	// GET /v1/jobs/{id}) when non-nil. Synchronous translates never
	// touch its journal.
	Jobs *Jobs
	// PollTimeout caps GET /v1/jobs/{id}?wait= long-polls; 0 means 30s.
	PollTimeout time.Duration
	// GatewayStats, when set, merges the tenant gateway's per-tenant
	// admission counters into GET /v1/stats (typically
	// tenant.(*Gateway).Stats), so one endpoint answers both "what did
	// the service do" and "what did the front door refuse".
	GatewayStats func() map[string]tenant.GateStats
	// StreamThreshold is the body size at which a streaming-eligible
	// request (text/* Content-Type or ?stream=1) leaves the buffered
	// pipeline for true function-at-a-time streaming; bodies of unknown
	// length (chunked transfer) always stream, and streamed bodies are
	// governed by Config.StreamMemBudget instead of MaxBodyBytes. 0
	// means DefaultStreamThreshold, negative streams every eligible
	// request.
	StreamThreshold int64
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []BatchItem `json:"jobs"`
}

// BatchResponse is the 202 body of POST /v1/batch: ids to poll.
type BatchResponse struct {
	Jobs []BatchJobRef `json:"jobs"`
}

// BatchJobRef names one accepted job.
type BatchJobRef struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// JobsResponse is the body of GET /v1/jobs: counts cover every known
// job; Jobs holds the newest ?limit= of them (default 100), newest
// first.
type JobsResponse struct {
	Counts map[string]int `json:"counts"`
	Jobs   []JobView      `json:"jobs"`
}

// statsResponse is the body of GET /v1/stats: the service counters,
// plus the tenant gateway's per-tenant admission slice when one fronts
// this handler.
type statsResponse struct {
	Stats
	Gateway map[string]tenant.GateStats `json:"gateway,omitempty"`
}

// Handler exposes the service over HTTP with default options.
func Handler(s *Service) http.Handler {
	return NewHandler(s, HandlerOpts{})
}

// method wraps an endpoint with a uniform method check: anything but
// the stated method gets 405 with an Allow header and the standard
// error body.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", want))
			return
		}
		h(w, r)
	}
}

// NewHandler exposes the service over HTTP.
func NewHandler(s *Service, opts HandlerOpts) http.Handler {
	maxBody := opts.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	streamAt := opts.StreamThreshold
	if streamAt == 0 {
		streamAt = DefaultStreamThreshold
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/translate", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		// Raw-text requests (text/* Content-Type, or an explicit
		// ?stream=1) take the streaming surface: versions in query
		// parameters, IR as the uninterpreted body, raw IR back. The
		// JSON protocol is untouched — a body with no Content-Type
		// stays on this path.
		if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/") || r.URL.Query().Get("stream") == "1" {
			handleStream(s, opts, streamAt, maxBody, w, r)
			return
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(r.Context(), tr)
		// The tenant id (stamped by the gateway) rides the trace into
		// the slow-request log; the API key never does.
		if id := tenant.From(ctx); id != "" {
			tr.Annotate("tenant", id)
		}
		req := TranslateRequest{Source: "auto"}
		logSlow := func(outcome string, err error) {
			fields := map[string]any{
				"endpoint": "/v1/translate",
				"source":   req.Source,
				"target":   req.Target,
				"outcome":  outcome,
			}
			if id := tenant.From(ctx); id != "" {
				fields["tenant"] = id
			}
			if err != nil {
				fields["class"] = classLabel(err)
			}
			opts.SlowLog.Record(tr, fields)
		}
		if maxBody > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			// An oversized body surfaces as http.MaxBytesError from the
			// decoder's reads; it shares the Parse class (the client sent
			// an unreadable request) but gets its own 413 status.
			err = failure.Wrapf(failure.Parse, "bad request body: %w", err)
			writeError(w, httpStatus(err), err)
			logSlow("error", err)
			return
		}
		tgt, err := version.Parse(req.Target)
		if err != nil {
			writeError(w, http.StatusBadRequest, failure.Wrap(failure.Parse, err))
			logSlow("error", err)
			return
		}
		var src version.V // zero = detect
		if req.Source != "" && req.Source != "auto" {
			if src, err = version.Parse(req.Source); err != nil {
				writeError(w, http.StatusBadRequest, failure.Wrap(failure.Parse, err))
				logSlow("error", err)
				return
			}
		}
		start := time.Now()
		res, err := s.TranslateTextResult(ctx, req.IR, src, tgt)
		if err != nil {
			writeError(w, httpStatus(err), err)
			logSlow("error", err)
			return
		}
		resp := TranslateResponse{
			Source:       res.Source.String(),
			Target:       tgt.String(),
			IR:           res.Rendered,
			Elapsed:      time.Since(start).Nanoseconds(),
			Stages:       tr.Stages(),
			Degraded:     res.Degraded,
			DroppedSites: res.DroppedSites,
		}
		for _, v := range res.Route {
			resp.Route = append(resp.Route, v.String())
		}
		writeJSON(w, http.StatusOK, resp)
		logSlow("ok", nil)
	}))
	if opts.Jobs != nil {
		pollCap := opts.PollTimeout
		if pollCap <= 0 {
			pollCap = 30 * time.Second
		}
		mux.HandleFunc("/v1/batch", method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
			if maxBody > 0 {
				// A batch is many modules: give it proportionally more room.
				r.Body = http.MaxBytesReader(w, r.Body, maxBody*16)
			}
			var req BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				err = failure.Wrapf(failure.Parse, "bad request body: %w", err)
				writeError(w, httpStatus(err), err)
				return
			}
			ids, err := opts.Jobs.Submit(r.Context(), req.Jobs)
			if err != nil {
				writeError(w, httpStatus(err), err)
				return
			}
			resp := BatchResponse{}
			for _, id := range ids {
				resp.Jobs = append(resp.Jobs, BatchJobRef{ID: id, State: string(JobAccepted)})
			}
			writeJSON(w, http.StatusAccepted, resp)
		}))
		mux.HandleFunc("/v1/jobs", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
			limit := 0 // 0 = DefaultListLimit
			if ls := r.URL.Query().Get("limit"); ls != "" {
				n, err := strconv.Atoi(ls)
				if err != nil || n < 1 {
					writeError(w, http.StatusBadRequest, failure.Wrapf(failure.Parse, "bad limit %q: want a positive integer", ls))
					return
				}
				limit = n
			}
			counts, views := opts.Jobs.List(limit)
			writeJSON(w, http.StatusOK, JobsResponse{Counts: counts, Jobs: views})
		}))
		mux.HandleFunc("/v1/jobs/", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			if id == "" || strings.Contains(id, "/") {
				writeError(w, http.StatusNotFound, failure.Wrapf(failure.Parse, "unknown job id %q", id))
				return
			}
			wait := time.Duration(0)
			if ws := r.URL.Query().Get("wait"); ws != "" {
				d, err := time.ParseDuration(ws)
				if err != nil {
					writeError(w, http.StatusBadRequest, failure.Wrapf(failure.Parse, "bad wait %q: %v", ws, err))
					return
				}
				if d > pollCap {
					d = pollCap // bound the long-poll: no client parks a conn forever
				}
				wait = d
			}
			view, ok := opts.Jobs.Wait(r.Context(), id, wait)
			if !ok {
				writeError(w, http.StatusNotFound, failure.Wrapf(failure.Parse, "unknown job id %q", id))
				return
			}
			writeJSON(w, http.StatusOK, view)
		}))
	}
	mux.HandleFunc("/v1/stats", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		resp := statsResponse{Stats: s.Stats()}
		if opts.GatewayStats != nil {
			resp.Gateway = opts.GatewayStats()
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("/v1/versions", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		var vs []string
		for _, v := range s.Versions() {
			vs = append(vs, v.String())
		}
		writeJSON(w, http.StatusOK, map[string]any{"versions": vs})
	}))
	mux.HandleFunc("/healthz", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	// Readiness is not liveness: a draining or saturated service is
	// alive (healthz 200) but must get no new traffic (readyz 503, with
	// Retry-After), so a load balancer in front of several daemons
	// steers around one that is draining or shedding.
	mux.HandleFunc("/readyz", method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			writeError(w, httpStatus(err), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}))
	if reg := s.Metrics(); reg != nil && !opts.DisableMetricsEndpoint {
		mux.Handle("/metrics", reg.Handler())
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	class := ""
	if c := failure.ClassOf(err); c != nil {
		class = c.Error()
	}
	// Every retryable status tells the client when: the error's own
	// hint (shed estimate, breaker probe time) or a 1s floor.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		after := time.Second
		if d, ok := resilience.RetryAfterHint(err); ok {
			after = d
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((after+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Class: class, ExitCode: failure.ExitCode(err)})
}
