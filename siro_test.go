package siro

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/irgen"
	"repro/internal/tvalid"
	"repro/internal/version"
)

func TestFacadeSynthesizeAndTranslate(t *testing.T) {
	tr, report, err := Synthesize(V12_0, V3_6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Translators) != 58 {
		t.Fatalf("translators = %d, want 58", len(report.Translators))
	}
	src := `
define i32 @main() {
entry:
  %p = alloca i32
  store i32 21, i32* %p
  %v = load i32, i32* %p
  %r = mul i32 %v, 2
  ret i32 %r
}
`
	out, err := tr.TranslateText(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "load i32* %p") {
		t.Fatalf("not 3.6 syntax:\n%s", out)
	}
	m, err := ParseIR(out, V3_6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(m, nil)
	if err != nil || res.Ret != 42 {
		t.Fatalf("ret = %d (%v)", res.Ret, err)
	}
}

func TestFacadeVersionTrap(t *testing.T) {
	modern := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32, i32* %p\n  ret i32 %v\n}\n"
	if _, err := ParseIR(modern, V3_6); err == nil {
		t.Fatal("3.6 reader accepted modern syntax")
	}
	if _, err := ParseIR(modern, V12_0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCompileAndAnalyze(t *testing.T) {
	m, err := CompileC("p", `
int main() {
  int* p = 0;
  *p = 1;
  return 0;
}
`, V3_6)
	if err != nil {
		t.Fatal(err)
	}
	reports := AnalyzeModule(m, "p")
	if len(reports) != 1 || reports[0].Type != "NPD" {
		t.Fatalf("reports = %v", reports)
	}
	cmp := CompareReports(reports, reports)
	if len(cmp.Shared) != 1 || cmp.Accuracy() != 1 {
		t.Fatalf("self-compare broken: %+v", cmp)
	}
}

func TestFacadeCustomTests(t *testing.T) {
	tests := DefaultTests(V12_0)
	if len(tests) != 68 {
		t.Fatalf("default corpus = %d, want 68", len(tests))
	}
	// Synthesis over a hand-picked subset still works for those kinds.
	sub := tests[:0:0]
	for _, tc := range tests {
		switch tc.Name {
		case "ret_const", "add", "sub", "mul":
			sub = append(sub, tc)
		}
	}
	_, rep, err := Synthesize(V12_0, V3_6, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Translators) != 4 {
		t.Fatalf("translators = %d, want 4", len(rep.Translators))
	}
	if len(rep.Uncovered) == 0 {
		t.Fatal("uncovered kinds not reported for subset corpus")
	}
}

func TestFacadeParseVersion(t *testing.T) {
	v, err := ParseVersion("14.0")
	if err != nil || v != V14_0 {
		t.Fatalf("ParseVersion = %v, %v", v, err)
	}
	if _, err := ParseVersion("bogus"); err == nil {
		t.Fatal("bogus version accepted")
	}
}

// TestAllTableThreePairsEndToEnd is the repository's flagship
// integration test: for every Table 3 pair, synthesize the translator
// from the corpus, then check semantic preservation on unseen random
// programs with the differential translation validator.
func TestAllTableThreePairsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("ten-pair sweep in -short mode")
	}
	for _, pair := range Table3Pairs {
		pair := pair
		t.Run(pair.String(), func(t *testing.T) {
			tr, rep, err := SynthesizeWithOptions(pair.Source, pair.Target, nil, SynthOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Uncovered) != 0 {
				t.Fatalf("uncovered kinds: %v", rep.Uncovered)
			}
			for seed := int64(0); seed < 8; seed++ {
				m := irgen.Generate(irgen.Config{Seed: seed, Ver: pair.Source})
				out, err := tr.Translate(m)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				vrep := tvalid.Validate(m, out, tvalid.Options{Trials: 4, Seed: seed})
				if !vrep.OK() {
					t.Fatalf("seed %d: %s", seed, vrep)
				}
			}
		})
	}
}

// TestRoundTripTranslation checks pair composition: translating
// 12.0→3.6→12.0 preserves behaviour even though the two translators were
// synthesized independently.
func TestRoundTripTranslation(t *testing.T) {
	down, _, err := Synthesize(V12_0, V3_6, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := Synthesize(V3_6, V12_0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		m := irgen.Generate(irgen.Config{Seed: seed, Ver: version.V12_0})
		before, err := interp.Run(m, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		low, err := down.Translate(m)
		if err != nil {
			t.Fatalf("seed %d down: %v", seed, err)
		}
		back, err := up.Translate(low)
		if err != nil {
			t.Fatalf("seed %d up: %v", seed, err)
		}
		after, err := interp.Run(back, interp.Options{})
		if err != nil || after.Ret != before.Ret {
			t.Fatalf("seed %d: round trip changed behaviour: %d vs %d (%v)",
				seed, before.Ret, after.Ret, err)
		}
	}
}

func TestFacadeHubAndValidation(t *testing.T) {
	h := NewHub(V3_6)
	legacy := "define i32 @main() {\nentry:\n  %p = alloca i32\n  store i32 4, i32* %p\n  %v = load i32* %p\n  ret i32 %v\n}\n"
	m, detected, err := h.Open(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if version.FeaturesOf(detected).ExplicitLoadType {
		t.Fatalf("detected %s for legacy text", detected)
	}
	res, err := Execute(m, nil)
	if err != nil || res.Ret != 4 {
		t.Fatalf("ret = %d (%v)", res.Ret, err)
	}

	tr, _, err := Synthesize(V12_0, V3_6, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ParseIR("define i32 @main() {\nentry:\n  %r = mul i32 6, 7\n  ret i32 %r\n}\n", V12_0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep := ValidateTranslation(src, out, 8, 1); !rep.OK() {
		t.Fatalf("validation failed: %s", rep)
	}
}

// The three text grammars a Hub must tell apart: typed pointers with
// the legacy load (≤3.6), typed pointers with the explicit load type
// (3.7–14), and opaque pointers (15+). Each main returns its value.
var hubFamilies = []struct {
	name string
	text string
	in   func(version.Features) bool
	ret  int64
}{
	{"legacy", "define i32 @main() {\nentry:\n  %p = alloca i32\n  store i32 5, i32* %p\n  %v = load i32* %p\n  ret i32 %v\n}\n",
		func(f version.Features) bool { return !f.ExplicitLoadType }, 5},
	{"modern", "define i32 @main() {\nentry:\n  %p = alloca i32\n  store i32 6, i32* %p\n  %v = load i32, i32* %p\n  ret i32 %v\n}\n",
		func(f version.Features) bool { return f.ExplicitLoadType && !f.OpaquePointers }, 6},
	{"opaque", "define i32 @main() {\nentry:\n  %p = alloca i32\n  store i32 7, ptr %p\n  %v = load i32, ptr %p\n  ret i32 %v\n}\n",
		func(f version.Features) bool { return f.OpaquePointers }, 7},
}

func TestHubDetectVersionFamilies(t *testing.T) {
	h := NewHub(V3_6)
	for _, fam := range hubFamilies {
		_, v, err := h.DetectVersion(fam.text)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if !fam.in(version.FeaturesOf(v)) {
			t.Errorf("%s text detected as %s, outside its grammar family", fam.name, v)
		}
	}
	if _, _, err := h.DetectVersion("this is not IR"); !errors.Is(err, ErrParse) {
		t.Fatalf("garbage: err = %v, want ErrParse", err)
	}
	if _, _, err := h.Open("this is not IR"); !errors.Is(err, ErrParse) {
		t.Fatalf("Open(garbage): err = %v, want ErrParse", err)
	}
}

// checkHubOpen opens one family's text and checks it came back at the
// pivot with the family's main() value.
func checkHubOpen(h *Hub, text string, want int64) error {
	m, src, err := h.Open(text)
	if err != nil {
		return err
	}
	if m.Ver != h.Pivot {
		return fmt.Errorf("normalized to %s, want %s (detected %s)", m.Ver, h.Pivot, src)
	}
	res, err := Execute(m, nil)
	if err != nil || res.Ret != want {
		return fmt.Errorf("main() = %d (%v), want %d", res.Ret, err, want)
	}
	return nil
}

func TestHubOpenNormalizesAcrossFamilies(t *testing.T) {
	h := NewHub(V3_6)
	for _, fam := range hubFamilies {
		if err := checkHubOpen(h, fam.text, fam.ret); err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
	}
	// Pivot-version input skips translation entirely.
	if pairs := h.CachedPairs(); len(pairs) != 2 {
		t.Fatalf("cached pairs = %v, want 2 (modern + opaque families)", pairs)
	}
}

func TestHubTranslatorCacheReused(t *testing.T) {
	h := NewHub(V3_6)
	modern := hubFamilies[1].text
	if _, _, err := h.Open(modern); err != nil {
		t.Fatal(err)
	}
	before := h.cache.Stats().Synthesized
	if err := checkHubOpen(h, strings.Replace(modern, "i32 6", "i32 9", 1), 9); err != nil {
		t.Fatal(err)
	}
	if after := h.cache.Stats().Synthesized; after != before {
		t.Fatalf("second open re-synthesized the translator (%d -> %d syntheses)", before, after)
	}
}

// Concurrent Opens share one synthesis per pair: three goroutines per
// family, every result correct, and exactly two translators cached.
func TestHubConcurrentOpen(t *testing.T) {
	h := NewHub(V3_6)
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(hubFamilies))
	for _, fam := range hubFamilies {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := checkHubOpen(h, fam.text, fam.ret); err != nil {
					errs <- fmt.Errorf("%s: %w", fam.name, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pairs := h.CachedPairs(); len(pairs) != 2 {
		t.Fatalf("cached pairs = %v, want 2", pairs)
	}
	if st := h.cache.Stats(); st.Synthesized != 2 {
		t.Fatalf("synthesized %d translators, want one per pair (2)", st.Synthesized)
	}
}
