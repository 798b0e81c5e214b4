package synth

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/version"
)

func neighborTests(t *testing.T, v version.V) []*TestCase {
	return []*TestCase{addTest(t, v), subTest(t, v)}
}

// Synthesizers and imports running at once read the same candidate
// terms through one GenCache, and every synthesis reads the shared input
// leaf. NewTerm stored each key before its term was published, so
// reading a key writes nothing; under the race detector (make race) this
// test is the guard. Two neighbor pairs synthesize over one GenCache with
// parallel generation while the first pair's artifact is imported, and
// their serial, cache-free reference runs go at the same time; each
// shared-cache export must equal its reference. The references share no
// lock with anything, so a key written on first use would race. That
// holds only while no earlier test has keyed a term, so this test stays
// the first in the package to synthesize.
func TestGenCacheConcurrentSynthesisAndImport(t *testing.T) {
	pairs := []version.Pair{
		{Source: version.V12_0, Target: version.V3_6},
		{Source: version.V13_0, Target: version.V3_6},
	}
	tests := make([][]*TestCase, len(pairs))
	for i, p := range pairs {
		tests[i] = neighborTests(t, p.Source)
	}

	gc := NewGenCache()
	shared := make([][]byte, len(pairs)+1) // each pair's export, then the import's re-export
	serial := make([][]byte, len(pairs))
	errs := make([]error, 2*len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := New(p.Source, p.Target, Options{}).Run(tests[i])
			if err == nil {
				serial[i], err = res.Export()
			}
			errs[2*i] = err
		}()
		go func() {
			defer wg.Done()
			opts := Options{Workers: 2, GenCache: gc}
			res, err := New(p.Source, p.Target, opts).Run(tests[i])
			if err == nil {
				shared[i], err = res.Export()
			}
			if err == nil && i == 0 {
				if res, err = Import(shared[i], opts); err == nil {
					shared[len(pairs)], err = res.Export()
				}
			}
			errs[2*i+1] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want := append(serial[:len(pairs):len(pairs)], serial[0])
	names := []string{pairs[0].String(), pairs[1].String(), "import of " + pairs[0].String()}
	for i := range want {
		if !bytes.Equal(shared[i], want[i]) {
			t.Errorf("%s over the shared GenCache exported bytes that differ from the serial run", names[i])
		}
	}
	if gc.Len() == 0 {
		t.Fatal("nothing went through the shared GenCache")
	}
}

// A shared GenCache must make the second synthesis of an equal
// generation surface skip the typegraph walk — and must not change what
// it generates: the warm export is byte-identical to the cold one.
func TestGenCacheSharesGeneration(t *testing.T) {
	gc := NewGenCache()
	first := New(version.V12_0, version.V3_6, Options{GenCache: gc})
	firstRes, err := first.Run(neighborTests(t, version.V12_0))
	if err != nil {
		t.Fatal(err)
	}
	if firstRes.Stats.GenCacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", firstRes.Stats.GenCacheHits)
	}
	if gc.Len() == 0 {
		t.Fatal("cold run populated nothing")
	}

	cold := New(version.V12_0, version.V3_6, Options{})
	coldRes, err := cold.Run(neighborTests(t, version.V12_0))
	if err != nil {
		t.Fatal(err)
	}
	warm := New(version.V12_0, version.V3_6, Options{GenCache: gc})
	warmRes, err := warm.Run(neighborTests(t, version.V12_0))
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Stats.GenCacheHits == 0 {
		t.Fatal("same-pair rerun hit nothing in the generation cache")
	}
	coldBlob, err := coldRes.Export()
	if err != nil {
		t.Fatal(err)
	}
	warmBlob, err := warmRes.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBlob, warmBlob) {
		t.Fatal("generation cache changed the exported artifact")
	}
}

// The cache must also transfer between genuinely different pairs whose
// generation surfaces match (the adjacent-pair case the warm matrix
// exploits).
func TestGenCacheSharesAcrossNeighborPairs(t *testing.T) {
	gc := NewGenCache()
	a := New(version.V12_0, version.V3_6, Options{GenCache: gc})
	if _, err := a.Run(neighborTests(t, version.V12_0)); err != nil {
		t.Fatal(err)
	}
	b := New(version.V13_0, version.V3_6, Options{GenCache: gc})
	bRes, err := b.Run(neighborTests(t, version.V13_0))
	if err != nil {
		t.Fatal(err)
	}
	if bRes.Stats.GenCacheHits == 0 {
		t.Fatal("neighbor pair shared no generation surfaces; expected most kinds to match")
	}
}

// A GenCache handed to a synthesis with overridden (possibly poisoned)
// libraries must stay untouched in both directions: nothing read,
// nothing written.
func TestGenCacheIgnoresOverriddenLibraries(t *testing.T) {
	gc := NewGenCache()
	empty := &irlib.Library{Ver: version.V3_6, Side: irlib.SideTgt}
	s := New(version.V12_0, version.V3_6, Options{GenCache: gc, Builders: empty})
	_, _ = s.Run([]*TestCase{addTest(t, version.V12_0)}) // fails; irrelevant
	if gc.Len() != 0 {
		t.Fatalf("overridden-library run stored %d surfaces into the shared cache", gc.Len())
	}
}

// Hints from a completed neighbor must seed the new pair's enumeration
// (fewer validations than a cold run) without changing the verdicts:
// synthesis still succeeds and still satisfies its tests.
func TestNeighborHintsSeedEnumeration(t *testing.T) {
	doneOpts := Options{}
	done := New(version.V12_0, version.V3_6, doneOpts)
	doneRes, err := done.Run(neighborTests(t, version.V12_0))
	if err != nil {
		t.Fatal(err)
	}
	hints := doneRes.Hints(doneOpts)
	if hints == nil || len(hints.Cells) == 0 {
		t.Fatal("completed synthesis yielded no hints")
	}

	cold := New(version.V13_0, version.V3_6, Options{})
	coldRes, err := cold.Run(neighborTests(t, version.V13_0))
	if err != nil {
		t.Fatal(err)
	}
	warm := New(version.V13_0, version.V3_6, Options{Hints: hints})
	warmRes, err := warm.Run(neighborTests(t, version.V13_0))
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Stats.NeighborSeeded == 0 {
		t.Fatal("no enumeration box was hint-seeded; the neighbor surfaces did not transfer")
	}
	if warmRes.Stats.Validations >= coldRes.Stats.Validations {
		t.Fatalf("hint-seeded run validated %d translators, cold run %d — seeding saved nothing",
			warmRes.Stats.Validations, coldRes.Stats.Validations)
	}
}

// A misleading hint (its keys resolve only to candidates that lose on
// the new pair's tests) must cost one fallback round, never a verdict:
// the synthesizer widens back to the full pools and converges.
func TestNeighborHintsFallBackOnMisleadingHint(t *testing.T) {
	// Build the hint surface exactly as the synthesizer would see it, so
	// the bogus cell is guaranteed to match and seed.
	probe := New(version.V12_0, version.V3_6, Options{})
	surface := probe.cellSurfaceOf(ir.Sub)
	bad := &Hints{
		Pair: version.Pair{Source: version.V13_0, Target: version.V3_6},
		Cells: []HintCell{{
			Kind:    ir.Sub.String(),
			Surface: surface,
			Sigma:   "true",
			// The swapped-operand sub: loses on any asymmetric test.
			Keys: []string{"CreateSub(TranslateValue(GetRHS(inst)),TranslateValue(GetLHS(inst)))"},
		}},
	}
	s := New(version.V12_0, version.V3_6, Options{Hints: bad})
	res, err := s.Run([]*TestCase{subTest(t, version.V12_0)})
	if err != nil {
		t.Fatalf("misleading hint broke synthesis: %v", err)
	}
	if res.Stats.NeighborSeeded == 0 {
		t.Fatal("the misleading hint never seeded — the test proves nothing")
	}
	if res.Stats.NeighborFallbacks == 0 {
		t.Fatal("no fallback recorded; the seeded round should have found no winner")
	}
	if len(res.Refined[ir.Sub]["true"]) == 0 {
		t.Fatal("fallback did not recover the full candidate pool")
	}
	for _, a := range res.Refined[ir.Sub]["true"] {
		if a.Key() == "CreateSub(TranslateValue(GetRHS(inst)),TranslateValue(GetLHS(inst)))" {
			t.Fatal("the misleading candidate survived refinement")
		}
	}
}

// Hints are a canonical-library artifact: a result synthesized (or
// merely asked about) under library overrides must yield none.
func TestHintsNilForOverriddenLibraries(t *testing.T) {
	opts := Options{}
	s := New(version.V12_0, version.V3_6, opts)
	res, err := s.Run(neighborTests(t, version.V12_0))
	if err != nil {
		t.Fatal(err)
	}
	override := Options{Getters: &irlib.Library{Ver: version.V12_0, Side: irlib.SideSrc}}
	if h := res.Hints(override); h != nil {
		t.Fatal("Hints returned a transferable result for an overridden library")
	}
	// And a synthesizer with overrides must not consume hints either.
	good := res.Hints(opts)
	empty := &irlib.Library{Ver: version.V3_6, Side: irlib.SideTgt}
	poisoned := New(version.V12_0, version.V3_6, Options{Hints: good, Builders: empty})
	_, _ = poisoned.Run([]*TestCase{addTest(t, version.V12_0)})
	if poisoned.stats.NeighborSeeded != 0 {
		t.Fatal("an overridden-library synthesis consumed canonical hints")
	}
}

func TestHintsRegistryNearest(t *testing.T) {
	reg := NewHintsRegistry()
	p := func(s, t version.V) version.Pair { return version.Pair{Source: s, Target: t} }
	if got := reg.Nearest(p(version.V12_0, version.V3_6)); got != nil {
		t.Fatalf("empty registry returned %v", got)
	}
	reg.Store(&Hints{Pair: p(version.V17_0, version.V3_6), Cells: []HintCell{{}}})
	reg.Store(&Hints{Pair: p(version.V13_0, version.V3_6), Cells: []HintCell{{}}})
	reg.Store(&Hints{Pair: p(version.V12_0, version.V3_6), Cells: []HintCell{{}}})
	if reg.Len() != 3 {
		t.Fatalf("Len = %d", reg.Len())
	}
	// The pair itself is skipped; the same-source-distance neighbor wins.
	got := reg.Nearest(p(version.V12_0, version.V3_6))
	if got == nil || got.Pair != p(version.V13_0, version.V3_6) {
		t.Fatalf("Nearest = %+v, want 13.0->3.6", got)
	}
	var nilReg *HintsRegistry
	if nilReg.Nearest(p(version.V12_0, version.V3_6)) != nil || nilReg.Len() != 0 {
		t.Fatal("nil registry not inert")
	}
	nilReg.Store(nil) // must not panic
}
