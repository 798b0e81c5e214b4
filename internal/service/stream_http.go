package service

import (
	"bytes"
	"io"
	"net/http"
	"strings"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/version"
)

// The streaming wire protocol of POST /v1/translate:
//
//	POST /v1/translate?source=12.0&target=3.6[&stream=1][&partial=1]
//	Content-Type: text/plain
//	<textual IR body>
//
// Versions ride query parameters because the body is the uninterpreted
// IR text; source is mandatory (auto-detection would read the whole
// input). Responses are raw target-version IR, text/plain.
//
// Bodies with a known length below the stream threshold run the
// buffered pipeline (multi-hop routing, coalescing and degradation all
// apply) and only the response representation changes. Larger or
// chunked bodies stream function-at-a-time: the response begins once
// the pipeline has produced output past a small holdback buffer, so
// early failures still get a proper HTTP status; a failure after
// streaming began is reported in HTTP trailers —
//
//	X-Siro-Status:        ok | error
//	X-Siro-Failure-Class: the failure class ("" on success)
//	X-Siro-Error:         first line of the error
//
// — and the body written so far is NOT a valid translation. ?partial=1
// selects the lenient pipeline (unsupported constructs dropped); it
// always truly streams so its semantics don't change with body size.

// streamHoldback is how much output is buffered before the streaming
// response commits to status 200. Big enough that a module whose very
// first function fails to translate still gets a clean JSON error;
// small enough to keep the holdback irrelevant to memory bounds.
const streamHoldback = 32 << 10

func handleStream(s *Service, opts HandlerOpts, streamAt, maxBody int64, w http.ResponseWriter, r *http.Request) {
	tr := obs.NewTrace()
	ctx := obs.WithTrace(r.Context(), tr)
	if id := tenant.From(ctx); id != "" {
		tr.Annotate("tenant", id)
	}
	q := r.URL.Query()
	logSlow := func(outcome string, err error) {
		fields := map[string]any{
			"endpoint": "/v1/translate",
			"mode":     "stream",
			"source":   q.Get("source"),
			"target":   q.Get("target"),
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
	fail := func(err error) {
		writeError(w, httpStatus(err), err)
		logSlow("error", err)
	}
	srcStr := q.Get("source")
	if srcStr == "" || srcStr == "auto" {
		fail(failure.Wrapf(failure.Parse, "streaming requires an explicit ?source= version (auto-detection reads the whole input)"))
		return
	}
	src, err := version.Parse(srcStr)
	if err != nil {
		fail(failure.Wrapf(failure.Parse, "bad ?source=: %w", err))
		return
	}
	tgt, err := version.Parse(q.Get("target"))
	if err != nil {
		fail(failure.Wrapf(failure.Parse, "bad ?target=: %w", err))
		return
	}
	lenient := q.Get("partial") == "1"

	if !lenient && streamAt > 0 && r.ContentLength >= 0 && r.ContentLength < streamAt {
		// Small known-length body: buffered pipeline, raw response. The
		// JSON body cap applies here — past the threshold the request
		// would have streamed instead, so the cap can never 413 a body
		// the streaming path was meant to carry.
		body := r.Body
		if maxBody > 0 {
			body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		text, err := io.ReadAll(body)
		if err != nil {
			fail(failure.Wrapf(failure.Parse, "bad request body: %w", err))
			return
		}
		res, err := s.TranslateTextResult(ctx, string(text), src, tgt)
		if err != nil {
			fail(err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, res.Rendered)
		logSlow("ok", nil)
		return
	}

	// True streaming: the body bypasses MaxBytesReader — the memory
	// governor, not a byte cap, bounds what a stream may hold, so
	// arbitrarily large modules pass through in O(function) memory.
	//
	// Full duplex is required on HTTP/1.x: without it the server closes
	// the request body the moment the response commits, and any module
	// whose output outruns the holdback dies with "invalid Read on
	// closed Body" mid-stream. Failure to enable (exotic wrappers) is
	// tolerated — small modules still work, and large ones fail typed.
	_ = http.NewResponseController(w).EnableFullDuplex()
	dw := &deferredStream{w: w, limit: streamHoldback}
	_, err = s.TranslateStream(ctx, r.Body, dw, src, tgt, lenient)
	if err != nil && !dw.started {
		fail(err)
		return
	}
	dw.finish(err)
	if err != nil {
		logSlow("error", err)
		return
	}
	logSlow("ok", nil)
}

// deferredStream holds the response back until either the holdback
// buffer fills (commit to 200 and stream, failures from here on ride
// the trailers) or the pipeline finishes while still buffered (status
// chosen with full knowledge of the outcome).
type deferredStream struct {
	w       http.ResponseWriter
	buf     bytes.Buffer
	limit   int
	started bool
}

func (d *deferredStream) Write(p []byte) (int, error) {
	if !d.started {
		d.buf.Write(p)
		if d.buf.Len() <= d.limit {
			return len(p), nil
		}
		d.start()
		return len(p), nil
	}
	n, err := d.w.Write(p)
	d.flush()
	return n, err
}

// start commits the 200, declares the trailers, and flushes the
// holdback.
func (d *deferredStream) start() {
	h := d.w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Trailer", "X-Siro-Status, X-Siro-Failure-Class, X-Siro-Error")
	d.w.WriteHeader(http.StatusOK)
	d.started = true
	d.w.Write(d.buf.Bytes())
	d.buf.Reset()
	d.flush()
}

func (d *deferredStream) flush() {
	if f, ok := d.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish seals the response: late start if everything fit the
// holdback, then the verdict trailers. A non-nil err here means the
// stream failed after bytes were committed — the trailer is the only
// place left to say so.
func (d *deferredStream) finish(err error) {
	if !d.started {
		d.start()
	}
	h := d.w.Header()
	if err == nil {
		h.Set("X-Siro-Status", "ok")
		h.Set("X-Siro-Failure-Class", "")
		h.Set("X-Siro-Error", "")
		return
	}
	h.Set("X-Siro-Status", "error")
	h.Set("X-Siro-Failure-Class", classLabel(err))
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	h.Set("X-Siro-Error", msg)
}
