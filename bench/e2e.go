package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/version"
)

// servedDaemons is how many daemons a served workload starts, one
// after another. Each serves a warm-up, one closed-loop window and one
// open-loop window. setup_s, throughput_rps and peak_rss_mb are medians
// across the daemons, so a few seconds of host disturbance (which on
// the 2-vCPU VM this was tuned on recurs every ~20 s) do not decide a
// run; the latency percentiles pool every open-loop sample.
const servedDaemons = 5

// maxGeneratorLateMs marks a run invalid: past it the generator, not
// the daemon, shaped the open-loop latencies.
const maxGeneratorLateMs = 2.0

// ret42 is the cold-matrix module: it parses at every version and its
// translation must still return 42.
const ret42 = "define i32 @main() {\nentry:\n  %a = add i32 40, 2\n  ret i32 %a\n}\n"

// runServed measures hot, bulk or stream against warmed sirods: on each
// daemon a closed loop at capacity (whose warm-up also warms the
// daemon), then an open loop at the workload's rate.
func runServed(ctx context.Context, cfg config, w workload, m *scenario.Manifest, r *report) error {
	entries, err := loadEntries(m, w.mix)
	if err != nil {
		return err
	}
	p, err := makePlan(m, w, cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	r.Meta.PlanDigest = p.digest()
	closedWindow := time.Duration(float64(cfg.seconds) * (1 - openShare) / servedDaemons * float64(time.Second))
	warmup := min(closedWarmup, cfg.duration()/servedDaemons)

	g := newGate()
	var setups, rates, rsss []float64
	var lats, late []time.Duration
	attempted, errs := 0, 0
	var counters daemonCounters
	windows, starts := openWindows(p.Open.Items, servedDaemons)
	for k, items := range windows {
		d, err := startDaemon(cfg.sirod, warmPairs(entries))
		if err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		c := newClient(d.base, cfg.conns)
		closed := closedLoop(len(p.Round), cfg.conns, warmup, closedWindow, func(i int) bool {
			return send(ctx, c, entries[p.Round[i]], w.stream, g)
		})
		open := openLoop(len(items), cfg.conns, func(i int) time.Duration { return items[i].At() - starts[k] }, func(i int) bool {
			return send(ctx, c, entries[items[i].Entry], w.stream, g)
		})
		counters, err = scrapeDaemon(ctx, c)
		var rss float64
		if err == nil {
			rss, err = d.peakRSSMB()
		}
		if err == nil && w.stream && k == len(windows)-1 {
			attempted += streamMatchesJSON(ctx, c, entries, g)
		}
		c.close()
		d.stop()
		if err != nil {
			return err
		}
		lats = append(lats, open.latency...)
		late = append(late, open.late...)
		rates = append(rates, closed.rps)
		rsss = append(rsss, rss)
		attempted += len(items) + closed.attempted
		errs += open.errors + closed.errors
	}
	g.validate(entries)

	lat, err := summarizeLatency(lats)
	if err != nil {
		return err
	}
	lateness, err := summarizeLatency(late)
	if err != nil {
		return err
	}
	wrong, reasons := g.result()
	r.finish(attempted, errs, wrong, reasons)
	r.endToEnd(median(setups), lat, median(rates), median(rsss))
	r.Extra["setup_runs_s"] = setups
	r.Extra["closed_rps"] = rates
	r.Extra["peak_rss_runs_mb"] = rsss
	r.Extra["open_requests"] = len(p.Open.Items)
	r.Extra["generator_late_p50_ms"] = lateness.P50Ms
	r.Extra["generator_late_p99_ms"] = lateness.P99Ms
	r.Extra["valid"] = lateness.P99Ms <= maxGeneratorLateMs
	r.Extra["daemon"] = counters
	return nil
}

// openWindows splits an open-loop schedule into n consecutive windows
// of equal request counts, returning each window's items and the due
// offset its first item sets as the window's start.
func openWindows(items []scenario.Item, n int) ([][]scenario.Item, []time.Duration) {
	out := make([][]scenario.Item, n)
	starts := make([]time.Duration, n)
	for k := range n {
		lo, hi := k*len(items)/n, (k+1)*len(items)/n
		out[k], starts[k] = items[lo:hi], items[lo].At()
	}
	return out, starts
}

// streamMatchesJSON is the stream half of the correctness gate: each
// entry's streamed output must equal what the JSON path serves for it.
// It returns how many requests it sent.
func streamMatchesJSON(ctx context.Context, c *client, entries map[string]*entry, g *gate) int {
	n := 0
	for _, name := range g.names() {
		streamed, _ := g.output(name)
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		viaJSON, err := c.translateJSON(rctx, entries[name].jsonReq)
		cancel()
		n++
		switch {
		case err != nil:
			g.fail(name, fmt.Errorf("JSON path: %w", err))
		case viaJSON != streamed:
			g.mark(name, "streamed output differs from the JSON path's")
		}
	}
	return n
}

// matrixEntries builds one ret-42 request per ordered version pair, in
// matrixPairs order.
func matrixEntries() ([]*entry, map[string]version.Pair, error) {
	var out []*entry
	pairs := map[string]version.Pair{}
	for _, p := range matrixPairs() {
		req, err := json.Marshal(service.TranslateRequest{Source: p.Source.String(), Target: p.Target.String(), IR: ret42})
		if err != nil {
			return nil, nil, err
		}
		e := &entry{name: p.String(), src: p.Source, tgt: p.Target, body: ret42, jsonReq: req}
		out = append(out, e)
		pairs[e.name] = p
	}
	return out, pairs, nil
}

// runColdMatrix requests every ordered pair once per repetition, each
// repetition on a fresh memory-only daemon with nothing warmed, closed
// loop over cfg.conns connections. It repeats until the run's seconds
// are spent, at least minMatrixReps times.
func runColdMatrix(ctx context.Context, cfg config, w workload, m *scenario.Manifest, r *report) error {
	entries, pairs, err := matrixEntries()
	if err != nil {
		return err
	}
	p, err := makePlan(m, w, cfg.seed, cfg.seconds)
	if err != nil {
		return err
	}
	r.Meta.PlanDigest = p.digest()

	g := newGate()
	var setups, rates, rsss []float64
	var lats []time.Duration
	attempted, errs := 0, 0
	start := time.Now()
	for rep, perm := range p.Matrix {
		if rep >= minMatrixReps && time.Since(start) >= cfg.duration() {
			break
		}
		d, err := startDaemon(cfg.sirod, nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		repLat, repErrs, elapsed := matrixOnce(ctx, newClient(d.base, cfg.conns), cfg.conns, entries, perm, g)
		rss, err := d.peakRSSMB()
		d.stop()
		if err != nil {
			return err
		}
		lats = append(lats, repLat...)
		attempted += len(perm)
		errs += repErrs
		rates = append(rates, float64(len(perm))/elapsed.Seconds())
		rsss = append(rsss, rss)
	}
	g.validateRet42(pairs)

	lat, err := summarizeLatency(lats)
	if err != nil {
		return err
	}
	wrong, reasons := g.result()
	r.finish(attempted, errs, wrong, reasons)
	r.endToEnd(median(setups), lat, median(rates), median(rsss))
	r.Extra["setup_runs_s"] = setups
	r.Extra["matrix_reps"] = len(rates)
	r.Extra["matrix_pairs_per_s"] = rates
	r.Extra["peak_rss_runs_mb"] = rsss
	return nil
}

// matrixOnce serves one permutation of the matrix and returns the
// per-request latencies, the error count and the matrix wall time.
func matrixOnce(ctx context.Context, c *client, conns int, entries []*entry, perm []int, g *gate) ([]time.Duration, int, time.Duration) {
	defer c.close()
	lat := make([]time.Duration, len(perm))
	var next, errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(perm) {
					return
				}
				t := time.Now()
				if !send(ctx, c, entries[perm[k]], false, g) {
					errs.Add(1)
				}
				lat[k] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return lat, int(errs.Load()), time.Since(start)
}
