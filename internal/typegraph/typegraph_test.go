package typegraph

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/version"
)

func buildGraph(t *testing.T, op ir.Opcode, src, tgt version.V) *Graph {
	t.Helper()
	return Build(op, irlib.Getters(src), irlib.Builders(tgt), irlib.XlateAPIs())
}

func TestGraphEdgesWellFormed(t *testing.T) {
	g := buildGraph(t, ir.Br, version.V12_0, version.V3_6)
	if len(g.Builders) != 2 { // CreateBr, CreateCondBr
		t.Fatalf("br builders = %d", len(g.Builders))
	}
	// Every API contributes exactly one return edge plus one labelled
	// parameter edge per parameter (Def. 4.1).
	wantEdges := 0
	for _, a := range g.APIs {
		wantEdges += 1 + len(a.Params)
	}
	if len(g.Edges) != wantEdges {
		t.Fatalf("edges = %d, want %d", len(g.Edges), wantEdges)
	}
	for _, e := range g.Edges {
		if e.Pos == 0 {
			t.Fatalf("parameter edge with label 0: %+v", e)
		}
	}
}

func TestCandidatesAreFeasibleSubgraphs(t *testing.T) {
	for _, op := range []ir.Opcode{ir.Add, ir.Br, ir.Ret, ir.Call, ir.Load, ir.GetElementPtr, ir.Phi} {
		g := buildGraph(t, op, version.V12_0, version.V3_6)
		cands := g.Candidates(Options{})
		if len(cands) == 0 {
			t.Errorf("%s: no candidates", op)
			continue
		}
		for _, a := range cands {
			if !g.CheckFeasible(a) {
				t.Errorf("%s: candidate %s violates Def. 4.2", op, a.Key())
			}
		}
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	g1 := buildGraph(t, ir.Br, version.V12_0, version.V3_6)
	g2 := buildGraph(t, ir.Br, version.V12_0, version.V3_6)
	c1 := g1.Candidates(Options{})
	c2 := g2.Candidates(Options{})
	SortAtomics(c1)
	SortAtomics(c2)
	if len(c1) != len(c2) {
		t.Fatalf("non-deterministic candidate counts: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].Key() != c2[i].Key() {
			t.Fatalf("candidate %d differs: %s vs %s", i, c1[i].Key(), c2[i].Key())
		}
	}
}

func TestCandidatesIncludePaperBranchTranslators(t *testing.T) {
	// The candidate set for br must include the correct Fig. 4 form, the
	// GetOperand-based Fig. 11 form, and the two incorrect Fig. 9 forms —
	// all well-typed, distinguished only by testing.
	g := buildGraph(t, ir.Br, version.V12_0, version.V3_6)
	keys := map[string]bool{}
	for _, a := range g.Candidates(Options{}) {
		keys[a.Key()] = true
	}
	want := []string{
		// Fig. 4 correct conditional translator.
		"CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int0)),TranslateBlock(GetBlock(inst,Int1)))",
		// Fig. 11 equivalent via the raw operand accessor.
		"CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(AsBlock(GetOperand(inst,Int1))),TranslateBlock(AsBlock(GetOperand(inst,Int2))))",
		// Fig. 9 AtomicBranch1: duplicated target.
		"CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int0)),TranslateBlock(GetBlock(inst,Int0)))",
		// Fig. 9 AtomicBranch2: swapped targets.
		"CreateCondBr(TranslateValue(GetCond(inst)),TranslateBlock(GetBlock(inst,Int1)),TranslateBlock(GetBlock(inst,Int0)))",
		// Unconditional form.
		"CreateBr(TranslateBlock(GetBlock(inst,Int0)))",
	}
	for _, k := range want {
		if !keys[k] {
			t.Errorf("missing expected candidate %s", k)
		}
	}
}

func TestCandidateCapsRespected(t *testing.T) {
	g := buildGraph(t, ir.InsertElement, version.V12_0, version.V3_6)
	if got := len(g.Candidates(Options{MaxCandidates: 10})); got != 10 {
		t.Fatalf("cap ignored: %d", got)
	}
}

func TestVersionChangesCandidateShape(t *testing.T) {
	// Targeting ≥9 must produce typed CreateCall candidates (Fig. 13).
	gOld := buildGraph(t, ir.Call, version.V17_0, version.V3_6)
	gNew := buildGraph(t, ir.Call, version.V17_0, version.V12_0)
	hasTyped := func(g *Graph) bool {
		for _, a := range g.Candidates(Options{}) {
			if len(a.Root.Args) == 3 {
				return true
			}
		}
		return false
	}
	if hasTyped(gOld) {
		t.Error("3.6 target produced typed CreateCall")
	}
	if !hasTyped(gNew) {
		t.Error("12.0 target produced no typed CreateCall")
	}
}

func TestDistributionBuckets(t *testing.T) {
	d := Distribution([]int{1, 3, 4, 10, 11, 100, 101, 500})
	if d["[1-3]"] != 2 || d["[4-10]"] != 2 || d["[11-100]"] != 2 || d[">100"] != 2 {
		t.Fatalf("Distribution = %v", d)
	}
}

func TestUsefulTokensPrunesIrrelevant(t *testing.T) {
	g := buildGraph(t, ir.Add, version.V12_0, version.V3_6)
	useful := g.usefulTokens()
	if useful[irlib.Src(irlib.TokBlock)] {
		t.Error("Block token marked useful for add")
	}
	if !useful[irlib.Src(irlib.TokValue)] {
		t.Error("Value token not useful for add")
	}
}

// Candidate generation builds every term with irlib.NewTerm, which
// stores the structural key once. Each stored key must equal a render of
// the tree from scratch, for every node of every candidate of every
// common kind, on pairs from both ends of the version range.
func TestCandidateKeysMatchRender(t *testing.T) {
	var render func(tm *irlib.Term) string
	render = func(tm *irlib.Term) string {
		if tm.API == nil {
			return "inst"
		}
		if len(tm.Args) == 0 {
			return tm.API.Name
		}
		parts := make([]string, len(tm.Args))
		for i, a := range tm.Args {
			parts[i] = render(a)
		}
		return tm.API.Name + "(" + strings.Join(parts, ",") + ")"
	}
	checked := map[*irlib.Term]bool{}
	var check func(op ir.Opcode, tm *irlib.Term)
	check = func(op ir.Opcode, tm *irlib.Term) {
		if checked[tm] {
			return
		}
		checked[tm] = true
		if got, want := tm.Key(), render(tm); got != want {
			t.Errorf("%s: stored key %q, rendered %q", op, got, want)
		}
		for _, a := range tm.Args {
			check(op, a)
		}
	}
	for _, p := range []version.Pair{
		{Source: version.V3_6, Target: version.V17_0},
		{Source: version.V12_0, Target: version.V3_6},
		{Source: version.V17_0, Target: version.V3_6},
	} {
		getters, builders, xlate := irlib.Getters(p.Source), irlib.Builders(p.Target), irlib.XlateAPIs()
		for _, op := range ir.CommonOpcodes(p.Source, p.Target) {
			for _, a := range Build(op, getters, builders, xlate).Candidates(Options{}) {
				check(op, a.Root)
			}
		}
	}
	if len(checked) < 1000 {
		t.Fatalf("checked only %d terms; generation produced too little to prove anything", len(checked))
	}
	t.Logf("%d distinct terms checked", len(checked))
}
