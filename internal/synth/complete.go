package synth

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/version"
)

// complete performs skeleton completion (§4.3.5): for every instruction
// kind with refinement data, select the minimum set of atomic translators
// covering all encountered σ& keys, simplify their predicate guards, and
// assemble the final M_k mappings.
func (s *Synthesizer) complete() (*Result, error) {
	start := time.Now()
	res := &Result{
		Pair:        version.Pair{Source: s.SrcVer, Target: s.TgtVer},
		Candidates:  s.candidates,
		Refined:     s.mstar,
		Translators: map[ir.Opcode]*InstTranslator{},
	}
	s.stats.RefinedPerKind = map[ir.Opcode]int{}

	for _, op := range ir.CommonOpcodes(s.SrcVer, s.TgtVer) {
		cells, covered := s.mstar[op]
		if !covered || len(cells) == 0 {
			res.Uncovered = append(res.Uncovered, op)
			s.warnf("instruction kind %s has no covering test case; translator will warn at use", op)
			continue
		}
		tr, err := completeKind(op, cells)
		if err != nil {
			return nil, err
		}
		res.Translators[op] = tr
		// Count distinct refined atomics across all cells (Fig. 12(b)).
		distinct := map[*irlib.Atomic]bool{}
		for _, set := range cells {
			for _, a := range set {
				distinct[a] = true
			}
		}
		s.stats.RefinedPerKind[op] = len(distinct)
	}
	if s.canonical {
		res.cellSurfaces = make(map[ir.Opcode]string, len(s.mstar))
		for op := range s.mstar {
			res.cellSurfaces[op] = s.cellSurfaceOf(op)
		}
	}
	s.stats.CompleteTime += time.Since(start)
	res.Warnings = s.warnings
	res.Stats = s.stats
	return res, nil
}

func (s *Synthesizer) warnf(format string, args ...any) {
	s.warnings = append(s.warnings, fmt.Sprintf(format, args...))
}

// completeKind builds M_k from the refined cells of one kind.
func completeKind(op ir.Opcode, cells map[string][]*irlib.Atomic) (*InstTranslator, error) {
	keys := make([]string, 0, len(cells))
	for k := range cells {
		if len(cells[k]) == 0 {
			return nil, failure.Wrapf(failure.Synthesis, "synth: contradictory tests for %s under %q: no candidate satisfies all", op, k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// If one atomic translator satisfies every sub-kind, M_k collapses to
	// [true → λ] (the 72% single-translator outcome of Fig. 12(b)). The
	// guard keeps the predicates every covered combination agrees on, so
	// genuinely unseen combinations still trigger the §4.3.5 warning.
	if common := intersectAll(cells, keys); common != nil {
		return &InstTranslator{Kind: op, Cases: []Case{{
			Sigma: simplifySigma(keys), Covered: keys, Atomic: common,
		}}}, nil
	}

	// Otherwise select a minimum cover greedily: repeatedly take the
	// atomic covering the most uncovered σ& keys.
	remaining := map[string]bool{}
	for _, k := range keys {
		remaining[k] = true
	}
	var out []Case
	for len(remaining) > 0 {
		best, bestCov := pickBest(cells, remaining)
		if best == nil {
			return nil, failure.Wrapf(failure.Synthesis, "synth: cover construction failed for %s", op)
		}
		sort.Strings(bestCov)
		out = append(out, Case{
			Sigma:   simplifySigma(bestCov),
			Covered: bestCov,
			Atomic:  best,
		})
		for _, k := range bestCov {
			delete(remaining, k)
		}
	}
	return &InstTranslator{Kind: op, Cases: out}, nil
}

// intersectAll returns a deterministic representative present in every
// cell, or nil.
func intersectAll(cells map[string][]*irlib.Atomic, keys []string) *irlib.Atomic {
	counts := map[*irlib.Atomic]int{}
	for _, k := range keys {
		for _, a := range dedupe(cells[k]) {
			counts[a]++
		}
	}
	var best *irlib.Atomic
	for a, n := range counts {
		if n == len(keys) && (best == nil || a.ID < best.ID) {
			best = a
		}
	}
	return best
}

// pickBest returns the atomic covering the most remaining σ& keys (ties
// broken by lowest ID) along with the keys it covers.
func pickBest(cells map[string][]*irlib.Atomic, remaining map[string]bool) (*irlib.Atomic, []string) {
	cov := map[*irlib.Atomic][]string{}
	for k := range remaining {
		for _, a := range cells[k] {
			cov[a] = append(cov[a], k)
		}
	}
	var best *irlib.Atomic
	for a := range cov {
		if best == nil || len(cov[a]) > len(cov[best]) ||
			(len(cov[a]) == len(cov[best]) && a.ID < best.ID) {
			best = a
		}
	}
	if best == nil {
		return nil, nil
	}
	return best, cov[best]
}

// simplifySigma ORs the covered σ& conjunctions and removes irrelevant
// predicates: a predicate survives only if every covered combination
// agrees on its value (the "most accurate" guard of §4.3.5).
func simplifySigma(covered []string) map[string]string {
	agreed := map[string]string{}
	conflicted := map[string]bool{}
	for i, key := range covered {
		for _, part := range strings.Split(key, "&") {
			name, val, ok := strings.Cut(part, "=")
			if !ok {
				continue
			}
			if i == 0 {
				agreed[name] = val
				continue
			}
			if prev, seen := agreed[name]; !seen || prev != val {
				conflicted[name] = true
			}
		}
	}
	out := map[string]string{}
	for name, val := range agreed {
		if !conflicted[name] {
			out[name] = val
		}
	}
	return out
}

// Select returns the atomic translator M_k dispatches to for σ&, applying
// exact-match first and simplified guards second; ok is false when the
// combination was never covered by a test (the warn-and-ask-for-a-test
// path of §4.3.5).
func (t *InstTranslator) Select(sigma string) (*irlib.Atomic, bool) {
	for _, c := range t.Cases {
		for _, k := range c.Covered {
			if k == sigma {
				return c.Atomic, true
			}
		}
	}
	parsed := map[string]string{}
	for _, part := range strings.Split(sigma, "&") {
		if name, val, ok := strings.Cut(part, "="); ok {
			parsed[name] = val
		}
	}
	for _, c := range t.Cases {
		match := true
		for name, val := range c.Sigma {
			if parsed[name] != val {
				match = false
				break
			}
		}
		if match {
			return c.Atomic, true
		}
	}
	return nil, false
}
