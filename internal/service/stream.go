package service

import (
	"context"
	"io"
	"runtime"
	"time"

	"repro/internal/failure"
	"repro/internal/resilience"
	"repro/internal/version"
)

// The bounded-memory streaming path: /v1/translate bodies above the
// stream threshold (and `siro -in` with a stated source) bypass the
// whole-module pipeline and run translator.TranslateStream instead —
// parse one function, translate it, flush it, drop it. Peak heap is
// O(largest function) regardless of module size.
//
// What a stream gives up for that bound:
//
//   - the source version must be stated (auto-detection parses the
//     whole text at every version — the opposite of streaming);
//   - only a direct-pair translator serves it (a multi-hop chain hands
//     whole modules between hops, so routing a stream would silently
//     reinstate O(module) memory);
//   - it does not ride the worker queue: the stream runs on the
//     caller's goroutine, paced by the memory governor, because a
//     queued stream would hold its request body open while parked.
//
// The memory governor (Config.StreamMemBudget) is the admission
// control: every chunk read grows the stream's lease, every flushed
// function returns it, and a stream that would push the process past
// the budget parks briefly, then fails with a Budget-classed 429.

// StreamStats is the streaming path's slice of the service counters.
type StreamStats struct {
	Requests int64 `json:"requests"`
	Failed   int64 `json:"failed"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// Governor state, point-in-time.
	MemInUse   int64  `json:"mem_in_use"`
	MemBudget  int64  `json:"mem_budget"`
	MemParked  int    `json:"mem_parked"`
	Parks      uint64 `json:"parks"`
	Rejections uint64 `json:"rejections"`
}

func (st *StreamStats) fillGovernor(gs resilience.MemStats) {
	st.MemInUse = gs.InUse
	st.MemBudget = gs.Budget
	st.MemParked = gs.Parked
	st.Parks = gs.Parks
	st.Rejections = gs.Rejections
}

// StreamResult is TranslateStream's outcome.
type StreamResult struct {
	BytesIn  int64
	BytesOut int64
	// Dropped counts unsupported sites a lenient stream dropped (always
	// 0 for the strict variant).
	Dropped int
}

// MemGovernor exposes the streaming-memory governor (never nil) for
// wiring and tests.
func (s *Service) MemGovernor() *resilience.MemGovernor { return s.memgov }

// TranslateStream translates textual IR from r to w one function at a
// time under the streaming-memory governor. The bytes written are
// identical to the batch path's output for any input both accept; on
// error the prefix already written is NOT a valid translation and the
// caller must surface the failure out-of-band (exit code, HTTP
// trailer). lenient selects the degraded TranslateStreamPartial
// pipeline.
func (s *Service) TranslateStream(ctx context.Context, r io.Reader, w io.Writer, src, tgt version.V, lenient bool) (StreamResult, error) {
	res, err := s.translateStream(ctx, r, w, src, tgt, lenient)
	s.recordStream(ctx, res, err)
	return res, err
}

func (s *Service) translateStream(ctx context.Context, r io.Reader, w io.Writer, src, tgt version.V, lenient bool) (StreamResult, error) {
	if err := s.admit(src, tgt, nil); err != nil {
		return StreamResult{}, err
	}
	if !src.IsValid() {
		return StreamResult{}, failure.Wrapf(failure.Parse,
			"service: streaming requires an explicit source version (auto-detection reads the whole input)")
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return StreamResult{}, resilience.DrainingRejection(time.Second, "service: draining, not admitting new work")
	}
	if src == tgt {
		// Identity translation still streams: copy through the governor
		// so a huge same-version request is bounded like any other.
		return s.streamCopy(ctx, r, w)
	}
	pair := version.Pair{Source: src, Target: tgt}
	tr, _, err := s.cachedTranslator(ctx, pair)
	if err != nil {
		if failure.ClassOf(err) != failure.Parse && ctx.Err() == nil {
			err = failure.Wrapf(failure.ClassOf(err),
				"service: no direct translator for streaming %s (multi-hop routes buffer whole modules): %w", pair, err)
		}
		return StreamResult{}, err
	}

	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	lease := s.memgov.Lease()
	defer lease.Release()
	gr := &govReader{r: r, ctx: ctx, lease: lease}
	gw := &govWriter{w: w, lease: lease}

	end := s.met.stageTimer(ctx, stageStream)
	if lenient {
		sites, lerr := tr.TranslateStreamPartial(gr, gw)
		err = lerr
		if lerr == nil {
			end()
			return StreamResult{BytesIn: gr.n, BytesOut: gw.n, Dropped: len(sites)}, nil
		}
	} else {
		err = tr.TranslateStream(gr, gw)
	}
	end()
	res := StreamResult{BytesIn: gr.n, BytesOut: gw.n}
	if err != nil {
		// A governor rejection or a cancelled context surfaces through
		// the parser as a wrapped read error; report the admission
		// failure itself, not the parse-shaped detour.
		if gr.err != nil {
			return res, gr.err
		}
		return res, err
	}
	return res, nil
}

// streamCopy is the identity pair's stream: governed pass-through.
func (s *Service) streamCopy(ctx context.Context, r io.Reader, w io.Writer) (StreamResult, error) {
	lease := s.memgov.Lease()
	defer lease.Release()
	gr := &govReader{r: r, ctx: ctx, lease: lease}
	gw := &govWriter{w: w, lease: lease}
	n, err := io.Copy(gw, gr)
	res := StreamResult{BytesIn: gr.n, BytesOut: n}
	if err != nil && gr.err != nil {
		return res, gr.err
	}
	return res, err
}

// govReader charges every chunk read against the stream's lease,
// parking inside Acquire when the process-wide budget is exhausted.
// The first admission failure is kept in err so the caller can surface
// it even after the parser wraps the read error.
type govReader struct {
	r     io.Reader
	ctx   context.Context
	lease *resilience.Lease
	n     int64
	err   error
}

func (g *govReader) Read(p []byte) (int, error) {
	if err := g.ctx.Err(); err != nil {
		g.setErr(failure.FromContext(err))
		return 0, g.err
	}
	n, err := g.r.Read(p)
	if n > 0 {
		g.n += int64(n)
		if aerr := g.lease.Acquire(g.ctx, int64(n)); aerr != nil {
			g.setErr(failure.FromContext(aerr))
			return 0, g.err
		}
	}
	if err != nil && err != io.EOF {
		// A body that dies with the context (client disconnect, job
		// timeout) is a budget failure; without this the parser would
		// wrap it into a parse-shaped error.
		if classified := failure.FromContext(err); classified != err {
			g.setErr(classified)
		}
	}
	return n, err
}

func (g *govReader) setErr(err error) {
	if g.err == nil {
		g.err = err
	}
}

// govWriter returns the lease on every flush: when a translated
// function reaches the output, everything read to produce it is dead,
// so the bytes go back to the budget and parked streams can wake.
type govWriter struct {
	w     io.Writer
	lease *resilience.Lease
	n     int64
}

func (g *govWriter) Write(p []byte) (int, error) {
	n, err := g.w.Write(p)
	g.n += int64(n)
	g.lease.Release()
	return n, err
}

// recordStream is record for the streaming path, plus the stream's own
// request count and its byte accounting, service-wide and per tenant.
// Streams are always direct, so a stream never counts as multi-hop.
func (s *Service) recordStream(ctx context.Context, res StreamResult, err error) {
	s.record(ctx, nil, err)
	m := s.met
	m.streamReqs.Inc()
	if err != nil {
		m.streamFailed.Inc()
	}
	m.streamIn.Add(res.BytesIn)
	m.streamOut.Add(res.BytesOut)
	if id := tenantOf(ctx); id != "" {
		m.tenantMet(id).streamed.Add(res.BytesIn + res.BytesOut)
	}
}

// heapWatchdog periodically exports the process heap and the streaming
// governor's state as gauges, so an operator can see streaming memory
// pressure building before the governor starts parking. It runs only
// when metrics are enabled and is joined before Drain returns.
func (s *Service) heapWatchdog() {
	defer s.watchWG.Done()
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	s.watchdogSample()
	for {
		select {
		case <-tick.C:
			s.watchdogSample()
		case <-s.watchStop:
			return
		}
	}
}

func (s *Service) watchdogSample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.met.watchdogSample(ms.HeapAlloc, s.memgov.Stats())
}
