// Package synth implements Siro's instruction-translator synthesis system
// (§4 of the paper): Alg. 2's iterative search-space reduction driven by
// test cases.
//
// The pipeline per version pair is:
//
//	➊ type-guided generation (package typegraph) yields candidates Λ*ₖ;
//	➋ each test case is profiled (location / kind / sub-kind profilers,
//	   Def. 4.3) and per-test translators are enumerated (Def. 4.4);
//	➌ per-test translators are validated by differential execution
//	   (Fig. 6): translate → verify → interpret → compare oracle;
//	➍ survivors refine the mapping M* by intersection (Alg. 4);
//	➎ skeleton completion turns M* into predicate-dispatched
//	   instruction translators (§4.3.5).
//
// The three optimizations of §4.4 are individually switchable so the
// RQ3 ablation benches can measure their effect.
package synth

import (
	"fmt"
	"sort"
	"sync"

	"time"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/typegraph"
	"repro/internal/version"
)

// TestCase is one user-provided IR program whose main function returns a
// constant with no inputs; the constant is the validation oracle.
type TestCase struct {
	Name   string
	Module *ir.Module // at the source version
	Oracle int64
}

// Options tunes the synthesis loop.
type Options struct {
	// DisableEquivalence turns off Optimization I (profile-table
	// equivalence merging of per-test translators).
	DisableEquivalence bool
	// DisableMemoization turns off Optimization II (reusing refined M*
	// entries during enumeration).
	DisableMemoization bool
	// DisableOrdering turns off Optimization III (simple-first test
	// ordering) and processes tests in the given order.
	DisableOrdering bool
	// MaxPerTest aborts a test whose per-test translator count exceeds
	// this bound (default 1 << 20). The ablation benches lower it.
	MaxPerTest int
	// Workers sets the synthesis parallelism: candidate generation is
	// fanned out across instruction kinds and validations across
	// per-test translators (§5 of the paper parallelizes validation
	// across 40 threads; generations and validations are independent).
	// 0 or 1 runs sequentially. The produced artifact is byte-identical
	// at every worker count: per-kind generation is order-independent
	// and validation visits every assignment, so refinement sees the
	// same winner sets regardless of completion order.
	Workers int
	// Hints, when non-nil, seeds refined-cell candidate pools from a
	// neighboring pair's completed synthesis wherever the version-gate
	// surface matches (see Hints). Seeded pools are re-validated on
	// this pair's tests, with a full-pool fallback per test, so hints
	// trade at worst one extra validation round for a much smaller
	// search. Canonical libraries only.
	Hints *Hints
	// GenCache, when non-nil, memoizes candidate generation across
	// synthesizers by generation surface (see GenCache) — a warm-matrix
	// run generates each surface once instead of once per pair.
	// Canonical libraries only.
	GenCache *GenCache
	// TestDeadline bounds the wall clock spent validating one test
	// case. 0 disables the bound. When it expires, validations that
	// already ran keep their verdicts (refinement proceeds on the
	// partial winner set); if nothing won before expiry the test fails
	// with a Budget-classified error. Each in-flight validation is also
	// raced against the deadline, so a candidate whose poisoned
	// component hangs forfeits only that per-test translator.
	TestDeadline time.Duration
	// Getters and Builders override the versioned API libraries the
	// synthesizer searches over; nil selects irlib.Getters(src) and
	// irlib.Builders(tgt). This is the seam the chaos fault-injection
	// harness uses to hand the search a library whose components lie,
	// trap, or panic.
	Getters  *irlib.Library
	Builders *irlib.Library
	// Gen bounds candidate generation.
	Gen typegraph.Options
}

func (o Options) withDefaults() Options {
	if o.MaxPerTest == 0 {
		o.MaxPerTest = 1 << 20
	}
	return o
}

// Stats aggregates the measurements reported in §6.4.
//
// The phase durations are wall-clock intervals of the synthesizer's
// driving goroutine: a parallel phase (generation fanned across kinds,
// validation fanned across per-test translators) is timed from fan-out
// to join, never by summing its workers — so the phases stay disjoint,
// sum to Total, and Total never exceeds the run's elapsed wall time no
// matter the worker count (pinned by TestPhaseAccountingWallClock).
// ExecTime is the exception: it sums interpreter time across workers
// (CPU time, not wall clock), so with Workers > 1 it can legitimately
// exceed ValidateTime; it is excluded from Phases for that reason.
type Stats struct {
	CandidatesPerKind map[ir.Opcode]int
	RefinedPerKind    map[ir.Opcode]int
	PerTestTotal      int // per-test translators enumerated
	Validations       int // per-test translators actually validated
	ExecRuns          int // oracle executions (survived translate+verify)
	PanicsIsolated    int // candidate rejections by panic recovery (validation + classification)
	TimedOut          int // validations skipped or cut off by TestDeadline

	GenCacheHits      int // kinds whose candidate generation was served by the GenCache
	NeighborSeeded    int // enumeration boxes seeded from neighbor-pair hints
	NeighborFallbacks int // tests re-validated on full pools after seeded pools found no winner

	GenTime      time.Duration
	ProfileTime  time.Duration
	EnumTime     time.Duration
	ValidateTime time.Duration
	ExecTime     time.Duration // cumulative interpreter CPU time across validation workers
	RefineTime   time.Duration
	CompleteTime time.Duration
}

// Total returns the wall time across all phases.
func (s *Stats) Total() time.Duration {
	return s.GenTime + s.ProfileTime + s.EnumTime + s.ValidateTime + s.RefineTime + s.CompleteTime
}

// CandidatesTotal sums the generated candidates across all kinds —
// the size of the search space this run enumerated over.
func (s *Stats) CandidatesTotal() int {
	total := 0
	for _, n := range s.CandidatesPerKind {
		total += n
	}
	return total
}

// Phases returns the per-phase wall times keyed by phase name, the
// seam observability exporters record synthesis-time breakdowns
// through. The phases are disjoint wall-clock intervals and sum to
// Total. ExecTime is omitted: it is summed across validation workers
// (CPU time), so under parallel validation it is not a wall-clock
// subset of "validate" and would break the invariant.
func (s *Stats) Phases() map[string]time.Duration {
	return map[string]time.Duration{
		"gen":      s.GenTime,
		"profile":  s.ProfileTime,
		"enum":     s.EnumTime,
		"validate": s.ValidateTime,
		"refine":   s.RefineTime,
		"complete": s.CompleteTime,
	}
}

// Case is one predicate-dispatched arm of a completed instruction
// translator M_k.
type Case struct {
	// Sigma is the simplified predicate guard: pred-name=value pairs
	// that must all hold. Empty means "always" (the single-sub-kind
	// [true → λ] form of Def. 3.1).
	Sigma map[string]string
	// Covered lists the raw σ& keys this arm absorbed.
	Covered []string
	Atomic  *irlib.Atomic
}

// InstTranslator is a completed M_k: an ordered predicate→atomic mapping
// plus a warning arm for unseen predicate combinations (§4.3.5).
type InstTranslator struct {
	Kind  ir.Opcode
	Cases []Case
}

// Result is the outcome of one synthesis run.
type Result struct {
	Pair        version.Pair
	Candidates  map[ir.Opcode][]*irlib.Atomic            // Λ* per kind
	Refined     map[ir.Opcode]map[string][]*irlib.Atomic // M* per kind per σ&
	Translators map[ir.Opcode]*InstTranslator            // completed M_k
	Uncovered   []ir.Opcode                              // common kinds no test exercised
	Warnings    []string
	Stats       Stats

	// cellSurfaces holds the cell surface of every refined kind, digested
	// while the synthesizer still had its libraries, so Hints needs none
	// (canonical libraries only; nil otherwise and after Import).
	cellSurfaces map[ir.Opcode]string
}

// Synthesizer drives Alg. 2 for one version pair.
type Synthesizer struct {
	SrcVer, TgtVer version.V
	Opts           Options

	getters  *irlib.Library
	builders *irlib.Library
	xlate    []*irlib.API
	preds    map[ir.Opcode][]irlib.Predicate

	// canonical is true when the synthesis runs over the stock API
	// libraries — the precondition for every cross-pair sharing
	// mechanism (GenCache, Hints), because a poisoned chaos library
	// shares signatures with the real one.
	canonical bool

	candidates   map[ir.Opcode][]*irlib.Atomic
	mstar        map[ir.Opcode]map[string][]*irlib.Atomic
	hintCells    map[string][]string  // (kind|surface|sigma) → atomic keys, built lazily from Opts.Hints
	genSurfaces  map[ir.Opcode]string // generation surfaces generate digested for the GenCache
	cellSurfaces map[ir.Opcode]string // memoized cellSurfaceOf results
	stats        Stats
	warnings     []string
}

// New creates a synthesizer for the src→tgt pair.
func New(src, tgt version.V, opts Options) *Synthesizer {
	getters := opts.Getters
	if getters == nil {
		getters = irlib.Getters(src)
	}
	builders := opts.Builders
	if builders == nil {
		builders = irlib.Builders(tgt)
	}
	return &Synthesizer{
		SrcVer: src, TgtVer: tgt, Opts: opts.withDefaults(),
		getters:      getters,
		builders:     builders,
		xlate:        irlib.XlateAPIs(),
		preds:        irlib.PredicatesByKind(src),
		canonical:    opts.Getters == nil && opts.Builders == nil,
		mstar:        map[ir.Opcode]map[string][]*irlib.Atomic{},
		cellSurfaces: map[ir.Opcode]string{},
	}
}

// Run executes the full synthesis over the given test cases.
func (s *Synthesizer) Run(tests []*TestCase) (*Result, error) {
	s.Prepare() // ➊
	ordered := append([]*TestCase(nil), tests...)
	if !s.Opts.DisableOrdering {
		OrderTests(ordered) // Optimization III
	}
	for _, t := range ordered {
		if err := s.AddTest(t); err != nil {
			return nil, err
		}
	}
	return s.Complete() // ➎
}

// Prepare runs type-guided candidate generation (step ➊). It is called
// implicitly by Run and AddTest and is idempotent.
func (s *Synthesizer) Prepare() {
	if s.candidates == nil {
		s.generate()
	}
}

// AddTest incrementally processes one more test case (steps ➋➌➍),
// refining M* in place. This is the paper's user workflow: when the
// completed translator reports an unseen sub-kind or a contradiction,
// add a covering test case and re-complete — previously processed tests
// are not re-validated thanks to Optimization II.
func (s *Synthesizer) AddTest(t *TestCase) error {
	s.Prepare()
	if err := s.processTest(t); err != nil {
		return fmt.Errorf("synth: test %q: %w", t.Name, err)
	}
	return nil
}

// Complete performs skeleton completion (step ➎) over the current M*.
// It may be called repeatedly, interleaved with AddTest.
func (s *Synthesizer) Complete() (*Result, error) {
	s.warnings = nil // recomputed from the current M*
	return s.complete()
}

// generate runs type-guided generation for every common instruction
// kind, fanned out across Options.Workers. Per-kind generations are
// independent and each kind's list is sorted deterministically, so the
// result is identical at any worker count; GenTime is the wall clock
// from fan-out to join. Kinds whose generation surface is already in
// the GenCache reuse the cached list (read-only) instead of rebuilding
// the typegraph. The surfaces digested for the GenCache are kept, so
// cell surfaces built on them later do not digest the libraries again.
func (s *Synthesizer) generate() {
	start := time.Now()
	ops := ir.CommonOpcodes(s.SrcVer, s.TgtVer)
	results := make([][]*irlib.Atomic, len(ops))
	surfaces := make([]string, len(ops))
	cached := make([]bool, len(ops))
	gc := s.Opts.GenCache
	if !s.canonical {
		gc = nil
	}
	genOne := func(i int) {
		op := ops[i]
		var surface string
		if gc != nil {
			surface = s.genSurfaceOf(op)
			surfaces[i] = surface
			if cands, ok := gc.lookup(surface); ok {
				results[i], cached[i] = cands, true
				return
			}
		}
		g := typegraph.Build(op, s.getters, s.builders, s.xlate)
		cands := g.Candidates(s.Opts.Gen)
		typegraph.SortAtomics(cands)
		results[i] = cands
		if gc != nil {
			gc.store(surface, cands)
		}
	}
	if workers := min(s.Opts.Workers, len(ops)); workers > 1 {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					genOne(i)
				}
			}()
		}
		for i := range ops {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		for i := range ops {
			genOne(i)
		}
	}
	s.candidates = make(map[ir.Opcode][]*irlib.Atomic, len(ops))
	s.genSurfaces = make(map[ir.Opcode]string, len(ops))
	for i, op := range ops {
		s.candidates[op] = results[i]
		if surfaces[i] != "" {
			s.genSurfaces[op] = surfaces[i]
		}
		if cached[i] {
			s.stats.GenCacheHits++
		}
	}
	s.stats.GenTime += time.Since(start)
	s.stats.CandidatesPerKind = map[ir.Opcode]int{}
	for op, cs := range s.candidates {
		s.stats.CandidatesPerKind[op] = len(cs)
	}
}

// profEntry is one row of the profile table τ_t (Def. 4.3).
type profEntry struct {
	Loc   int
	Inst  *ir.Instruction
	Kind  ir.Opcode
	Sigma string // σ&: conjunction of predicate=value, canonical order
	IsNew bool   // a "new" instruction handled by the skeleton, not synthesis
}

// profile runs the location, kind, and sub-kind profilers over a test.
func (s *Synthesizer) profile(t *TestCase) []*profEntry {
	start := time.Now()
	defer func() { s.stats.ProfileTime += time.Since(start) }()
	var out []*profEntry
	loc := 0
	for _, f := range t.Module.Funcs {
		for _, b := range f.Blocks {
			for _, inst := range b.Insts {
				e := &profEntry{Loc: loc, Inst: inst, Kind: inst.Op}
				if !ir.AvailableIn(inst.Op, s.TgtVer) {
					e.IsNew = true
				} else {
					e.Sigma = s.sigma(inst)
				}
				out = append(out, e)
				loc++
			}
		}
	}
	return out
}

// sigma evaluates the sub-kind profiler: the conjunction σ& of all
// predicate values of the instruction's kind.
func (s *Synthesizer) sigma(inst *ir.Instruction) string {
	return irlib.SigmaOf(s.preds, inst)
}

// OrderTests implements Optimization III: a lightweight topological
// heuristic that places tests exercising fewer instruction kinds (and
// fewer instructions) first, so that refined knowledge in M* prunes the
// enumeration of the complex tests that follow.
func OrderTests(tests []*TestCase) {
	complexity := func(t *TestCase) (kinds, insts int) {
		set := map[ir.Opcode]bool{}
		for _, f := range t.Module.Funcs {
			for _, b := range f.Blocks {
				for _, i := range b.Insts {
					set[i.Op] = true
					insts++
				}
			}
		}
		return len(set), insts
	}
	type keyed struct {
		t            *TestCase
		kinds, insts int
	}
	ks := make([]keyed, len(tests))
	for i, t := range tests {
		k, n := complexity(t)
		ks[i] = keyed{t, k, n}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].kinds != ks[j].kinds {
			return ks[i].kinds < ks[j].kinds
		}
		return ks[i].insts < ks[j].insts
	})
	for i := range ks {
		tests[i] = ks[i].t
	}
}
