package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/resilience"
	"repro/internal/translator"
	"repro/internal/tvalid"
	"repro/internal/version"
)

// Router plans multi-hop routes through the version graph when the
// direct src→tgt translator cannot be synthesized (or exceeded its
// budget): it searches for intermediate versions whose per-hop
// translators do synthesize, composes them into a translator.Chain,
// and differentially validates the composed chain over the corpus
// exactly as a direct translator would be — e.g. 3.6→17.0 served as
// 3.6→10.0→17.0. Hop translators come from the shared cache, so a hop
// synthesized for one route is free for every route (and direct
// request) that reuses the edge.
type Router struct {
	// Versions is the waypoint universe; defaults to version.All.
	Versions []version.V
	// MaxHops caps the number of translator hops in a route (≥2;
	// default 3).
	MaxHops int
	// MaxEdgeAttempts bounds how many edge synthesis attempts one Route
	// call may spend before giving up (default 16). Failed edges open
	// their circuit breaker, so a later Route fails them fast (for free)
	// and resumes where this one stopped paying — and unlike the old
	// permanent memo, an opened edge heals: after the cooldown one
	// search probes it again.
	MaxEdgeAttempts int
	// Get acquires one hop translator, normally Cache.Get bound to the
	// service's synthesis function.
	Get func(ctx context.Context, pair version.Pair) (*translator.Translator, error)
	// Breakers is the per-pair circuit breaker set shared with the
	// service. The breakers themselves are driven at the synthesis choke
	// point (the cache-miss callback); the router only observes their
	// fail-fast OpenErrors and trips the direct pair before routing
	// around it. Lazily created when unset (standalone routers).
	Breakers *resilience.Set

	met routerMetrics // the service's router instruments; zero value inert

	mu sync.Mutex // guards lazy Breakers init
}

func (r *Router) versions() []version.V {
	if len(r.Versions) > 0 {
		return r.Versions
	}
	return version.All
}

func (r *Router) maxHops() int {
	if r.MaxHops < 2 {
		return 3
	}
	return r.MaxHops
}

// breakers returns the shared breaker set, creating one with defaults
// for a standalone router.
func (r *Router) breakers() *resilience.Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Breakers == nil {
		r.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{})
	}
	return r.Breakers
}

// MarkBroken trips the pair's circuit breaker so route search fails
// the edge fast. The service marks the direct pair before routing
// around it; unlike the old broken-edge memo, the edge heals — the
// breaker admits a probe after its cooldown. An already-open breaker
// is left alone (re-tripping would push the probe time out and extend
// the outage).
func (r *Router) MarkBroken(pair version.Pair, err error) {
	var open *resilience.OpenError
	if errors.As(err, &open) {
		return
	}
	r.breakers().Trip(pair.String(), err)
}

// edge acquires the translator for one hop. A fail-fast from an open
// breaker does not spend the attempt budget — no synthesis ran, which
// mirrors the old broken-edge memo being free.
func (r *Router) edge(ctx context.Context, pair version.Pair, attempts *int) (*translator.Translator, error) {
	if *attempts <= 0 {
		return nil, failure.Wrapf(failure.Budget, "service: route search attempt budget exhausted")
	}
	*attempts--
	tr, err := r.Get(ctx, pair)
	if err != nil {
		// Breaker bookkeeping (Fail/Succeed) happens inside the
		// synthesis callback, the single choke point every Get funnels
		// through; here we only classify the outcome.
		var open *resilience.OpenError
		if errors.As(err, &open) {
			*attempts++
			r.met.memoHits.Inc()
		}
		return nil, err
	}
	return tr, nil
}

// Route finds, composes, and validates a multi-hop src→tgt chain of at
// least two hops: its caller has already tried the direct pair, so the
// search never asks for it again. The returned error carries the class
// of the most informative failure:
// Budget when the search ran out of attempts or time, Synthesis when
// every candidate route had an unsynthesizable hop, Validation when a
// composed chain misbehaved on the corpus.
func (r *Router) Route(ctx context.Context, src, tgt version.V) (*translator.Chain, error) {
	attempts := r.MaxEdgeAttempts
	if attempts <= 0 {
		attempts = 16
	}
	// Waypoint preference: the release history strictly between the
	// endpoints, walking src→tgt (each incompatibility crossed once),
	// then the remaining known versions as a last resort.
	var waypoints []version.V
	seen := map[version.V]bool{src: true, tgt: true}
	for _, v := range version.Between(src, tgt) {
		if !seen[v] {
			waypoints = append(waypoints, v)
			seen[v] = true
		}
	}
	for _, v := range r.versions() {
		if !seen[v] {
			waypoints = append(waypoints, v)
			seen[v] = true
		}
	}

	var lastErr error
	// Iterative deepening: all 2-hop routes before any 3-hop route.
	for hops := 2; hops <= r.maxHops(); hops++ {
		ch, err := r.search(ctx, src, tgt, waypoints, nil, hops, &attempts)
		if ch != nil {
			r.met.routesOK.Inc()
			r.met.hops.Add(int64(len(ch.Hops)))
			return ch, nil
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil || failure.ClassOf(err) == failure.Budget {
				break
			}
		}
	}
	if lastErr == nil {
		lastErr = failure.Wrapf(failure.Synthesis, "service: no route from %s to %s within %d hops",
			src, tgt, r.maxHops())
	}
	r.met.routesErr.Inc()
	return nil, fmt.Errorf("service: multi-hop routing %s->%s failed: %w", src, tgt, lastErr)
}

// search extends path (the hop translators so far, ending at cur) with
// every viable next waypoint, depth-first, trying the final edge to tgt
// first at each level below the top. It returns the first chain that
// composes and validates; a nil chain with a nil error means this
// subtree is exhausted.
func (r *Router) search(ctx context.Context, cur, tgt version.V, waypoints []version.V, path []*translator.Translator, hopsLeft int, attempts *int) (*translator.Chain, error) {
	if err := ctx.Err(); err != nil {
		return nil, failure.FromContext(err)
	}
	// Close the route: cur→tgt as the final hop. With no hop taken yet
	// that edge is the direct pair, which Route never asks for.
	if len(path) > 0 {
		final, err := r.edge(ctx, version.Pair{Source: cur, Target: tgt}, attempts)
		if err == nil {
			ch, cerr := translator.NewChain(append(append([]*translator.Translator(nil), path...), final))
			if cerr != nil {
				return nil, cerr
			}
			if verr := r.validateChain(ctx, ch); verr == nil {
				return ch, nil
			} else if failure.ClassOf(verr) == failure.Budget || ctx.Err() != nil {
				return nil, verr
			}
			// An invalid composition is not fatal: some hop pair interacts
			// badly; keep searching other routes.
		} else if failure.ClassOf(err) == failure.Budget {
			return nil, err
		}
	}
	if hopsLeft <= 1 {
		return nil, nil
	}
	for _, mid := range waypoints {
		if mid == cur || mid == tgt || onPath(path, mid) {
			continue
		}
		hop, err := r.edge(ctx, version.Pair{Source: cur, Target: mid}, attempts)
		if err != nil {
			if failure.ClassOf(err) == failure.Budget {
				return nil, err
			}
			continue
		}
		ch, err := r.search(ctx, mid, tgt, waypoints, append(path, hop), hopsLeft-1, attempts)
		if ch != nil || err != nil {
			return ch, err
		}
	}
	return nil, nil
}

// onPath reports whether v is already an intermediate version of the
// partial route (cycle prevention).
func onPath(path []*translator.Translator, v version.V) bool {
	for _, h := range path {
		if h.Pair.Source == v || h.Pair.Target == v {
			return true
		}
	}
	return false
}

// chainTrials is the differential trial count per corpus test when
// validating a composed chain.
const chainTrials = 8

// validateChain differentially validates the composed chain over the
// synthesis corpus at the chain's source version — the same
// translate→execute→compare discipline every direct translator already
// passed per test case, now applied end-to-end across the hops.
func (r *Router) validateChain(ctx context.Context, ch *translator.Chain) error {
	if r.met.stage != nil {
		defer r.met.stage(ctx, stageValidate)()
	}
	pair := ch.Pair()
	for _, tc := range corpus.Tests(pair.Source) {
		out, err := ch.Translate(tc.Module)
		if err != nil {
			return failure.Wrapf(failure.Validation,
				"service: chain %s failed on corpus test %q: %w", ch, tc.Name, err)
		}
		rep := tvalid.Validate(tc.Module, out, tvalid.Options{Trials: chainTrials, Seed: int64(len(tc.Name))})
		if !rep.OK() {
			return failure.Wrapf(failure.Validation,
				"service: chain %s diverges on corpus test %q: %s", ch, tc.Name, rep)
		}
	}
	return nil
}
