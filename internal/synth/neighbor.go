package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/typegraph"
	"repro/internal/version"
)

// Cross-pair memoization. Adjacent version pairs share almost all of
// their synthesis work: a 12.0→11.0 translator and a 12.0→10.0 one see
// the same source getters and predicates, and their builder surfaces
// differ only at the kinds whose API actually changed between 10.0 and
// 11.0. The unit of sharing is therefore not the pair but the
// version-gate surface one kind's synthesis crosses — the signatures of
// every component the search composes and the feature gates that shape
// how its output is validated. Two pairs with equal surfaces for a kind
// do identical work for it, so the work is keyed by the surface and
// reused:
//
//   - GenCache shares generated candidate lists (the typegraph walk,
//     the dominant cold-path phase) across every pair, synthesized or
//     imported, whose generation surface for the kind matches.
//     Candidates are immutable after SortAtomics, so the shared slices
//     are read-only and safe for the concurrent synthesizers of a
//     warm-matrix run.
//   - Hints carry a completed pair's refined (kind, σ&) cells — the
//     structural keys of the atomics that survived refinement — into a
//     neighboring pair's synthesis, where they seed each matching
//     cell's candidate pool. Seeded pools are *re-validated* on the new
//     pair's tests (they are a warm start, not a verdict); if a seeded
//     test finds no winner the synthesizer falls back to the full pool
//     for that test, so a misleading hint costs one extra validation
//     round and never an artifact.
//
// Both mechanisms engage only for the canonical API libraries
// (Options.Getters/Builders nil): a poisoned chaos library shares
// signatures with the real one, so surface hashes alone must never let
// its results leak into canonical synthesis.

// genSurface digests everything candidate generation for one kind
// depends on: the kind's getter signatures at the source version, the
// operand-translator interfaces, the kind's builder signatures at the
// target version, and the generation bounds. Equal digests guarantee
// byte-identical candidate lists.
func genSurface(kind ir.Opcode, getters, builders *irlib.Library, xlate []*irlib.API, gen typegraph.Options) string {
	h := sha256.New()
	io.WriteString(h, "siro-gensurface-v1\n")
	fmt.Fprintf(h, "kind %s\ngen %d %d %d\n", kind, gen.MaxTermsPerTok, gen.MaxCandidates, gen.MaxTermSize)
	for _, a := range getters.ByKind(kind) {
		io.WriteString(h, "G "+a.String()+"\n")
	}
	for _, a := range xlate {
		io.WriteString(h, "X "+a.String()+"\n")
	}
	tgtTok := irlib.InstTok(irlib.SideTgt, kind)
	for _, a := range builders.APIs {
		if a.Kind == kind && a.Class == irlib.ClassBuilder && a.Ret == tgtTok {
			io.WriteString(h, "B "+a.String()+"\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genSurfaceOf computes the synthesizer's generation surface for a kind.
func (s *Synthesizer) genSurfaceOf(kind ir.Opcode) string {
	return genSurface(kind, s.getters, s.builders, s.xlate, s.Opts.Gen)
}

// cellSurfaceOf extends the generation surface with the σ& alphabet
// (the kind's predicate set), so a hint cell's sigma string and
// candidate keys mean the same thing on both sides of a transfer. It
// deliberately includes nothing else: a transferred pool is
// *re-validated* on the receiving pair's tests and falls back to the
// full pool when it finds no winner, so version differences the surface
// does not capture (a getter whose behavior changed behind an identical
// signature, a target text-format gate) cost a retry, never a wrong
// artifact. Each kind is digested once per synthesizer, on the
// generation surface generate already computed when there is one.
func (s *Synthesizer) cellSurfaceOf(kind ir.Opcode) string {
	if surface, ok := s.cellSurfaces[kind]; ok {
		return surface
	}
	gen, ok := s.genSurfaces[kind]
	if !ok {
		gen = s.genSurfaceOf(kind)
	}
	h := sha256.New()
	io.WriteString(h, "siro-cellsurface-v1\n")
	io.WriteString(h, gen+"\n")
	for _, p := range s.preds[kind] {
		io.WriteString(h, "P "+p.Name+"\n")
	}
	surface := hex.EncodeToString(h.Sum(nil))
	s.cellSurfaces[kind] = surface
	return surface
}

// GenCache memoizes generated candidate lists across synthesizers,
// keyed by generation surface. It is safe for concurrent use; cached
// slices are shared read-only (candidate atomics are immutable after
// SortAtomics assigns their IDs, and their terms carry the keys NewTerm
// stored, so reading a key writes nothing). Synthesis and Import both
// generate through it, so the results of every pair a process
// synthesized or loaded from disk share one candidate list per surface.
type GenCache struct {
	mu sync.RWMutex
	m  map[string][]*irlib.Atomic
}

// NewGenCache returns an empty generation cache.
func NewGenCache() *GenCache {
	return &GenCache{m: map[string][]*irlib.Atomic{}}
}

func (g *GenCache) lookup(surface string) ([]*irlib.Atomic, bool) {
	if g == nil {
		return nil, false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	cands, ok := g.m[surface]
	return cands, ok
}

func (g *GenCache) store(surface string, cands []*irlib.Atomic) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.m[surface]; !ok {
		g.m[surface] = cands
	}
}

// Len reports the number of cached surfaces.
func (g *GenCache) Len() int {
	if g == nil {
		return 0
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.m)
}

// HintCell is one refined (kind, σ&) cell exported for a neighboring
// pair: the structural keys of the atomics that survived refinement,
// guarded by the cell surface they were validated under.
type HintCell struct {
	Kind    string   `json:"kind"`
	Surface string   `json:"surface"`
	Sigma   string   `json:"sigma"`
	Keys    []string `json:"keys"`
}

// Hints is the transferable residue of one completed synthesis: its
// refined cells, keyed by version-gate surface. Pass it to a
// neighboring pair's synthesis via Options.Hints.
type Hints struct {
	Pair  version.Pair
	Cells []HintCell
}

// Hints extracts the cross-pair hints of a completed result: each
// refined cell's atomic keys under the cell surface its synthesis
// digested. opts must be the options the result was synthesized under;
// library overrides (the chaos seam) make the result non-transferable
// and yield nil. So does an imported result, whose artifact carries no
// refined cells.
func (r *Result) Hints(opts Options) *Hints {
	if opts.Getters != nil || opts.Builders != nil {
		return nil
	}
	out := &Hints{Pair: r.Pair}
	kinds := make([]ir.Opcode, 0, len(r.Refined))
	for kind := range r.Refined {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		cells := r.Refined[kind]
		surface, ok := r.cellSurfaces[kind]
		if !ok {
			continue
		}
		sigmas := make([]string, 0, len(cells))
		for sigma := range cells {
			sigmas = append(sigmas, sigma)
		}
		sort.Strings(sigmas)
		for _, sigma := range sigmas {
			atomics := cells[sigma]
			if len(atomics) == 0 {
				continue
			}
			keys := make([]string, 0, len(atomics))
			for _, a := range dedupe(atomics) {
				keys = append(keys, a.Key())
			}
			sort.Strings(keys)
			out.Cells = append(out.Cells, HintCell{
				Kind: kind.String(), Surface: surface, Sigma: sigma, Keys: keys,
			})
		}
	}
	if len(out.Cells) == 0 {
		return nil
	}
	return out
}

// hintPool resolves the hint cell for (kind, σ&) — if one exists and
// its surface matches this synthesis — against the kind's generated
// candidates, returning the seeded pool in candidate order (so class
// enumeration stays deterministic). nil means no applicable hint.
func (s *Synthesizer) hintPool(kind ir.Opcode, sigma string) []*irlib.Atomic {
	hints := s.Opts.Hints
	if hints == nil || s.Opts.Getters != nil || s.Opts.Builders != nil {
		return nil
	}
	if s.hintCells == nil {
		s.hintCells = map[string][]string{}
		for _, c := range hints.Cells {
			s.hintCells[c.Kind+"|"+c.Surface+"|"+c.Sigma] = c.Keys
		}
	}
	keys, ok := s.hintCells[kind.String()+"|"+s.cellSurfaceOf(kind)+"|"+sigma]
	if !ok || len(keys) == 0 {
		return nil
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var pool []*irlib.Atomic
	for _, a := range s.candidates[kind] {
		if want[a.Key()] {
			pool = append(pool, a)
		}
	}
	if len(pool) == 0 {
		return nil // keys no longer resolve: surface drifted, ignore
	}
	return pool
}

// HintsRegistry holds the hints of completed pairs and answers "which
// completed neighbor is nearest to this pair?" — the seam the service
// and warm-matrix use to chain one pair's synthesis into the next. Safe
// for concurrent use.
type HintsRegistry struct {
	mu    sync.RWMutex
	pairs map[version.Pair]*Hints
}

// NewHintsRegistry returns an empty registry.
func NewHintsRegistry() *HintsRegistry {
	return &HintsRegistry{pairs: map[version.Pair]*Hints{}}
}

// Store records a completed pair's hints (nil hints are ignored).
func (r *HintsRegistry) Store(h *Hints) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.pairs[h.Pair] = h
	r.mu.Unlock()
}

// Nearest returns the stored hints whose pair is closest to p by
// release distance (source distance + target distance), preferring
// same-source neighbors and breaking ties by pair string so the choice
// is deterministic. nil when the registry is empty or only holds p
// itself.
func (r *HintsRegistry) Nearest(p version.Pair) *Hints {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *Hints
	bestScore := 0
	for pair, h := range r.pairs {
		if pair == p {
			continue
		}
		d := version.Distance(p.Source, pair.Source)*8 + version.Distance(p.Target, pair.Target)
		if d < 0 { // unknown version: overflowed multiply
			continue
		}
		if best == nil || d < bestScore ||
			(d == bestScore && pair.String() < best.Pair.String()) {
			best, bestScore = h, d
		}
	}
	return best
}

// Len reports the number of pairs with stored hints.
func (r *HintsRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pairs)
}
