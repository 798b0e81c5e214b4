package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/translator"
	"repro/internal/version"
)

// Layer names, as reported (per-request means get a _us suffix).
const (
	lTotal     = "bench.traced_total"
	lHTTP      = "service.http"
	lCodec     = "service.codec"
	lDispatch  = "service.dispatch"
	lGet       = "service.cache_get"
	lKey       = "service.cache_key"
	lParse     = "irtext.parse"
	lTranslate = "translator.translate"
	lWrite     = "irtext.write"
	lSynth     = "synth.call"
	lDecode    = "service.json_decode"
	lEncode    = "service.json_encode"
	lQueue     = "service.queue_wait"
)

// isolatedLayers partition a request's handler time, with dispatch as
// the remainder; the sum gate holds them to the traced total. The cache
// key is a sub-layer of cache_get and is not summed again.
var isolatedLayers = []string{lCodec, lGet, lParse, lTranslate, lWrite, lSynth}

// minTraced is the fewest requests a traced served run times.
const minTraced = 20

// layers accumulates per-request layer times and synthesis calls.
type layers struct {
	requests int
	errors   int
	sum      map[string]time.Duration // by layer name, over all requests
	isolated time.Duration            // Σ isolatedLayers, for the sum gate
	multiHop int
	synth    []synthCall
	coldSelf time.Duration // cold requests or warm-ups, minus their synthesis
	cold     int
	lookups  int64
	hits     int64
	// untracedUs is the mean serial round trip with no layer timing
	// between requests (served workloads only).
	untracedUs float64
}

// runTraced measures the per-layer breakdown of one workload.
func runTraced(ctx context.Context, cfg config, w workload, m *scenario.Manifest, r *report) error {
	p, err := makePlan(m, w, cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	r.Meta.PlanDigest = p.digest()
	tr := &tracer{t0: time.Now()}
	acc := &layers{sum: map[string]time.Duration{}}
	g := newGate()
	var emit float64
	if w.mix == nil {
		emit, err = traceColdMatrix(ctx, cfg, p, tr, acc, g)
	} else {
		emit, err = traceServed(ctx, cfg, w, m, p, tr, acc, g)
	}
	if err != nil {
		return err
	}
	wrong, reasons := g.result()
	r.finish(acc.requests+acc.errors, acc.errors, wrong, reasons)
	r.spans = tr.spans
	return acc.report(r, emit)
}

// traceServed warms the workload's pairs (recording their synthesis),
// then serves its schedule serially for the run's seconds.
func traceServed(ctx context.Context, cfg config, w workload, m *scenario.Manifest, p *plan, tr *tracer, acc *layers, g *gate) (float64, error) {
	entries, err := loadEntries(m, w.mix)
	if err != nil {
		return 0, err
	}
	ip := newInproc()
	defer ip.close()
	for _, pair := range warmPairs(entries) {
		start := time.Now()
		if err := ip.svc.Warm(ctx, pair.Source, pair.Target); err != nil {
			return 0, fmt.Errorf("warming %s: %w", pair, err)
		}
		acc.cold++
		acc.coldSelf += time.Since(start) - acc.addSynth(ip.synth.take(), tr, 0, 0)
	}

	items := p.Open.Items
	// Up to a second of untraced requests settles allocator and
	// connection state before spans are kept.
	// Its mean round trip, beside the traced total, shows what the
	// isolated layer calls between traced requests cost them.
	warmEnd := time.Now().Add(min(time.Second, cfg.duration()/4))
	var untraced time.Duration
	n := 0
	for ; time.Now().Before(warmEnd); n++ {
		it := items[n%len(items)]
		start := time.Now()
		if _, err := ip.request(ctx, entries[it.Entry], w.stream); err != nil {
			return 0, err
		}
		untraced += time.Since(start)
	}
	acc.untracedUs = float64(untraced) / float64(n) / 1e3
	end := time.Now().Add(cfg.duration())
	for i := 0; i < minTraced || time.Now().Before(end); i++ {
		it := items[i%len(items)]
		if err := ip.traceRequest(ctx, tr, acc, g, entries[it.Entry], w.stream, false); err != nil {
			return 0, err
		}
	}
	g.validate(entries)
	return ip.emitRatio(ctx)
}

// traceColdMatrix serves seeded permutations of the version matrix,
// each on a fresh in-process service, until the run's seconds are spent.
func traceColdMatrix(ctx context.Context, cfg config, p *plan, tr *tracer, acc *layers, g *gate) (float64, error) {
	entries, pairs, err := matrixEntries()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var emit float64
	for rep, perm := range p.Matrix {
		if rep > 0 && time.Since(start) >= cfg.duration() {
			break
		}
		ip := newInproc()
		for _, i := range perm {
			if err = ip.traceRequest(ctx, tr, acc, g, entries[i], false, true); err != nil {
				break
			}
		}
		if err == nil {
			emit, err = ip.emitRatio(ctx)
		}
		ip.close()
		if err != nil {
			return 0, err
		}
	}
	g.validateRet42(pairs)
	return emit, nil
}

// request sends one request through the in-process server.
func (p *inproc) request(ctx context.Context, e *entry, stream bool) (*service.TranslateResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if stream {
		out, err := p.client.translateStream(ctx, e.src, e.tgt, e.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		return &service.TranslateResponse{IR: out}, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.srv.URL+"/v1/translate", bytes.NewReader(e.jsonReq))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	payload, _, err := p.client.do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	var resp service.TranslateResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("%s: decoding response: %w", e.name, err)
	}
	return &resp, nil
}

// traceRequest serves one request with spans, then times its layers in
// isolation. cold marks a request that misses the cache.
func (p *inproc) traceRequest(ctx context.Context, tr *tracer, acc *layers, g *gate, e *entry, stream, cold bool) error {
	before := p.svc.Stats().Cache
	req := acc.requests + acc.errors + 1
	start := time.Now()
	resp, err := p.request(ctx, e, stream)
	end := time.Now()
	if err != nil {
		acc.errors++
		g.fail(e.name, err)
		return nil
	}
	after := p.svc.Stats().Cache
	acc.requests++
	acc.lookups += after.Lookups - before.Lookups
	acc.hits += after.MemoryHits - before.MemoryHits
	g.observe(e.name, resp.IR)

	root := tr.add(req, 0, lTotal, start, end, false)
	hs, he := p.handler.last()
	handler := tr.add(req, root, "service.handler", hs, he, false)
	synthDur := acc.addSynth(p.synth.take(), tr, req, handler)
	if cold {
		acc.cold++
		acc.coldSelf += end.Sub(start) - synthDur
	}
	for _, st := range resp.Stages {
		if st.Name == "queue" {
			acc.sum[lQueue] += time.Duration(st.Ns)
		}
	}
	lay, err := p.timeLayers(ctx, tr, req, handler, e, resp, stream, cold)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	lay[lSynth] = synthDur
	acc.add(lay, end.Sub(start), he.Sub(hs), len(resp.Route) > 2)
	return nil
}

// timeLayers times, each in its own call on the request's input, the
// layers the request went through.
func (p *inproc) timeLayers(ctx context.Context, tr *tracer, req, parent int, e *entry, resp *service.TranslateResponse, stream, cold bool) (map[string]time.Duration, error) {
	lay := map[string]time.Duration{}
	timed := func(name string, f func()) time.Duration {
		d := tr.timed(req, parent, name, f)
		lay[name] = d
		return d
	}
	if stream {
		// The stream surface's request is its query string; its response
		// has no envelope.
		timed(lCodec, func() {
			q, _ := url.ParseQuery(fmt.Sprintf("stream=1&source=%s&target=%s", e.src, e.tgt))
			_, _ = version.Parse(q.Get("source"))
			_, _ = version.Parse(q.Get("target"))
		})
	} else {
		dec := timed(lDecode, func() {
			var in service.TranslateRequest
			_ = json.Unmarshal(e.jsonReq, &in)
			_, _ = version.Parse(in.Source)
			_, _ = version.Parse(in.Target)
		})
		enc := timed(lEncode, func() { _, _ = json.MarshalIndent(resp, "", "  ") })
		lay[lCodec] = dec + enc
	}

	// The cache layer is Cache.Get; the key it computes is timed on its
	// own as a sub-layer, since at a ~150µs key the lookup proper is
	// within the key's run-to-run noise and cannot be carved out of it.
	pair := e.pair()
	cache := p.svc.Cache()
	timed(lKey, func() { cache.Key(pair) })
	// A request routed through a multi-hop chain has no direct
	// translator to time; its cache, translate and write land in
	// dispatch.
	if len(resp.Route) > 2 {
		return lay, nil
	}
	var trn *translator.Translator
	var err error
	if cold {
		// A miss is timed on a fresh cache, with the result the request
		// synthesized standing in for synthesis.
		res, _, err := cache.GetResult(ctx, pair, nil)
		if err != nil {
			return nil, fmt.Errorf("no cached result after a direct translation: %w", err)
		}
		fresh := service.NewCache("", 0, synth.Options{})
		timed(lGet, func() {
			trn, _, err = fresh.Get(ctx, pair, func() (*synth.Result, error) { return res, nil })
		})
	} else {
		timed(lGet, func() { trn, _, err = cache.Get(ctx, pair, nil) })
	}
	if err != nil {
		return nil, fmt.Errorf("cache lookup: %w", err)
	}

	if !stream {
		var mod, out *ir.Module
		if timed(lParse, func() { mod, err = irtext.Parse(e.body, e.src) }); err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		if timed(lTranslate, func() { out, err = trn.Translate(mod) }); err != nil {
			return nil, fmt.Errorf("translate: %w", err)
		}
		if timed(lWrite, func() { _, err = irtext.NewWriter(e.tgt).WriteModule(out) }); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		return lay, nil
	}
	// The stream path fuses parse, translate and write: time all of it,
	// the stream parser alone and the writer alone on the same output,
	// and take translate as the remainder.
	whole := tr.timed(req, parent, "translator.translate_stream", func() {
		err = trn.TranslateStream(strings.NewReader(e.body), io.Discard)
	})
	if err != nil {
		return nil, fmt.Errorf("stream translate: %w", err)
	}
	if timed(lParse, func() { _, err = irtext.ParseStream(strings.NewReader(e.body), e.src) }); err != nil {
		return nil, fmt.Errorf("stream parse: %w", err)
	}
	mod, err := irtext.Parse(e.body, e.src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	out, err := trn.Translate(mod)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	if timed(lWrite, func() { err = irtext.NewWriter(e.tgt).WriteTo(io.Discard, out) }); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	lay[lTranslate] = whole - lay[lParse] - lay[lWrite]
	return lay, nil
}

// addSynth records synthesis calls as spans under parent and returns
// their total duration.
func (a *layers) addSynth(calls []synthCall, tr *tracer, req, parent int) time.Duration {
	var total time.Duration
	for _, c := range calls {
		tr.add(req, parent, lSynth, c.start, c.end, false)
		total += c.end.Sub(c.start)
	}
	a.synth = append(a.synth, calls...)
	return total
}

// add folds one request's layers in and derives its two residuals from
// its round trip (total) and handler time.
func (a *layers) add(lay map[string]time.Duration, total, handler time.Duration, multiHop bool) {
	var iso time.Duration
	for _, name := range isolatedLayers {
		iso += lay[name]
	}
	for name, d := range lay {
		a.sum[name] += d
	}
	a.sum[lTotal] += total
	a.sum[lHTTP] += total - handler
	a.sum[lDispatch] += handler - iso
	a.isolated += iso
	if multiHop {
		a.multiHop++
	}
}

// report turns the accumulated layers into the per-layer metrics, and
// applies the sum gate.
func (a *layers) report(r *report, emit float64) error {
	if a.requests == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	n := float64(a.requests)
	us := func(name string) float64 { return float64(a.sum[name]) / n / 1e3 }
	set := func(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
	for _, name := range []string{lTotal, lHTTP, lCodec, lDispatch, lGet, lKey, lParse, lTranslate, lWrite} {
		set(name+"_us", us(name), "us")
	}
	set("translator.emit_ratio", emit, "ratio")
	set("service.cache_hit_ratio", ratio(float64(a.hits), float64(a.lookups)), "ratio")
	set("service.synth_calls", float64(len(a.synth)), "count")
	set("service.multi_hop", float64(a.multiHop), "count")
	set("service.cold_self_ms", float64(a.coldSelf)/float64(max(a.cold, 1))/1e6, "ms")

	var ok float64
	var phase [6]time.Duration
	var setup time.Duration
	var cands, vals, execs, gcHits, seeded, fallbacks, refined float64
	for _, c := range a.synth {
		if !c.ok {
			continue
		}
		ok++
		s := c.stats
		for i, d := range []time.Duration{s.GenTime, s.ProfileTime, s.EnumTime, s.ValidateTime, s.RefineTime, s.CompleteTime} {
			phase[i] += d
		}
		setup += c.end.Sub(c.start) - s.Total()
		cands += float64(s.CandidatesTotal())
		vals += float64(s.Validations)
		execs += float64(s.ExecRuns)
		gcHits += float64(s.GenCacheHits)
		seeded += float64(s.NeighborSeeded)
		fallbacks += float64(s.NeighborFallbacks)
		refined += float64(c.refined)
	}
	ok = max(ok, 1)
	for i, name := range []string{"gen", "profile", "enum", "validate", "refine", "complete"} {
		set("synth."+name+"_ms", float64(phase[i])/ok/1e6, "ms")
	}
	set("synth.setup_ms", float64(setup)/ok/1e6, "ms")
	set("synth.candidates", cands/ok, "count")
	set("synth.validations", vals/ok, "count")
	set("synth.exec_runs", execs/ok, "count")
	set("synth.gencache_hits", gcHits/ok, "count")
	set("synth.neighbor_seeded", seeded/ok, "count")
	set("synth.survivor_ratio", ratio(refined, cands), "ratio")
	set("synth.exec_ratio", ratio(execs, vals), "ratio")
	set("synth.fallback_ratio", ratio(fallbacks, seeded), "ratio")

	r.Extra[lDecode+"_us"] = us(lDecode)
	r.Extra[lEncode+"_us"] = us(lEncode)
	r.Extra[lQueue+"_us"] = us(lQueue)
	r.Extra["traced_requests"] = a.requests
	if a.untracedUs > 0 {
		r.Extra["untraced_serial_us"] = a.untracedUs
	}
	isolated, total := a.isolated, a.sum[lTotal]
	pass := sumGate(isolated, total)
	r.Extra["sum_gate"] = map[string]any{
		"isolated_us": float64(isolated) / n / 1e3,
		"total_us":    float64(total) / n / 1e3,
		"ratio":       ratio(float64(isolated), float64(total)),
		"pass":        pass,
	}
	if !pass {
		return fmt.Errorf("sum gate: isolated layers %.1fµs exceed the traced total %.1fµs by more than %.0f%%",
			float64(isolated)/n/1e3, float64(total)/n/1e3, sumGateTolerance*100)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// emitRatio reads the service's own instruction counters: target
// instructions emitted per source instruction translated.
func (p *inproc) emitRatio(ctx context.Context) (float64, error) {
	text, err := get(ctx, p.client.hc, p.srv.URL+"/metrics")
	if err != nil {
		return 0, err
	}
	m := parseMetrics(string(text))
	return ratio(m["siro_emitted_instructions_total"], m["siro_translated_instructions_total"]), nil
}
