// Package typegraph implements the IR type graph of Definition 4.1 and
// the feasible-subgraph search of Definition 4.2 in the Siro paper — the
// type-guided generation stage (§4.2) that produces candidate atomic
// translators for every common instruction kind.
//
// The graph's nodes are APIs and type tokens; a return edge API→token
// says the API produces the token, a labelled parameter edge token→API
// says the API consumes the token at that position. A feasible subgraph
// is a well-typed composition that turns the source-version instruction
// token into the target-version instruction token; each one is
// materialized as an irlib.Term tree rooted at a builder.
package typegraph

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/irlib"
)

// Edge is one labelled edge of the type graph.
type Edge struct {
	From, To string // node names: API name (qualified) or token string
	Pos      int    // parameter position for token→API edges; -1 for return edges
}

// Graph is the IR type graph assembled for one instruction kind.
type Graph struct {
	Kind     ir.Opcode
	APIs     []*irlib.API
	Builders []*irlib.API // the subset whose Ret is the target instruction token
	Edges    []Edge
}

// Options bounds the candidate search.
type Options struct {
	// MaxTermsPerTok caps how many distinct terms are kept per token
	// (default 64).
	MaxTermsPerTok int
	// MaxCandidates caps the number of generated atomic translators per
	// kind (default 1024).
	MaxCandidates int
	// MaxTermSize caps the number of API calls in one term (default 8).
	MaxTermSize int
}

func (o Options) withDefaults() Options {
	if o.MaxTermsPerTok == 0 {
		o.MaxTermsPerTok = 64
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 1024
	}
	if o.MaxTermSize == 0 {
		o.MaxTermSize = 8
	}
	return o
}

// Build assembles the type graph for kind from the source getter library,
// the target builder library, and the operand-translator interfaces.
func Build(kind ir.Opcode, getters, builders *irlib.Library, xlate []*irlib.API) *Graph {
	g := &Graph{Kind: kind}
	tgtTok := irlib.InstTok(irlib.SideTgt, kind)
	for _, a := range getters.ByKind(kind) {
		g.APIs = append(g.APIs, a)
	}
	g.APIs = append(g.APIs, xlate...)
	for _, a := range builders.APIs {
		if a.Kind == kind && a.Class == irlib.ClassBuilder && a.Ret == tgtTok {
			g.APIs = append(g.APIs, a)
			g.Builders = append(g.Builders, a)
		}
	}
	for _, a := range g.APIs {
		name := apiNode(a)
		g.Edges = append(g.Edges, Edge{From: name, To: a.Ret.String(), Pos: -1})
		for i, p := range a.Params {
			g.Edges = append(g.Edges, Edge{From: p.String(), To: name, Pos: i + 1})
		}
	}
	return g
}

func apiNode(a *irlib.API) string { return a.String() }

// usefulTokens computes, by backward BFS from the target instruction
// token, the set of tokens that can contribute to a feasible subgraph —
// the reachability rule of Definition 4.2 used as a pruning relation.
func (g *Graph) usefulTokens() map[irlib.Tok]bool {
	useful := map[irlib.Tok]bool{}
	var queue []irlib.Tok
	push := func(t irlib.Tok) {
		if !useful[t] {
			useful[t] = true
			queue = append(queue, t)
		}
	}
	push(irlib.InstTok(irlib.SideTgt, g.Kind))
	for len(queue) > 0 {
		tok := queue[0]
		queue = queue[1:]
		for _, a := range g.APIs {
			if a.Ret == tok {
				for _, p := range a.Params {
					push(p)
				}
			}
		}
	}
	return useful
}

// Candidates enumerates the feasible subgraphs for the graph's kind and
// returns them as candidate atomic translators Λ*ₖ (Def. 3.1). The
// enumeration is exhaustive up to the option caps and deterministic.
func (g *Graph) Candidates(opts Options) []*irlib.Atomic {
	opts = opts.withDefaults()
	useful := g.usefulTokens()

	// pool maps each token to the distinct terms producing it.
	pool := map[irlib.Tok][]*irlib.Term{}
	seen := map[string]bool{}
	addTerm := func(tok irlib.Tok, t *irlib.Term) bool {
		if len(pool[tok]) >= opts.MaxTermsPerTok || t.Size() > opts.MaxTermSize {
			return false
		}
		k := t.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
		pool[tok] = append(pool[tok], t)
		return true
	}

	srcTok := irlib.InstTok(irlib.SideSrc, g.Kind)
	pool[srcTok] = []*irlib.Term{irlib.InputTerm}
	seen["inst"] = true

	// Iterate to fixpoint: apply every non-builder API to all argument
	// combinations available so far. The source-instruction leaf is the
	// only seed, so term depth is naturally bounded by the graph's
	// layering (getter → cast → operand translator).
	for changed := true; changed; {
		changed = false
		for _, a := range g.APIs {
			if a.Class == irlib.ClassBuilder {
				continue
			}
			if !useful[a.Ret] {
				continue
			}
			for _, combo := range combos(a.Params, pool, srcTok) {
				if len(pool[a.Ret]) >= opts.MaxTermsPerTok {
					break // the pool is full: addTerm rejects every other combo
				}
				if addTerm(a.Ret, irlib.NewTerm(a, combo)) {
					changed = true
				}
			}
		}
	}

	// Root enumeration: every builder × every argument combination is a
	// feasible subgraph, i.e. a candidate atomic translator.
	var out []*irlib.Atomic
	for _, b := range g.Builders {
		for _, combo := range combos(b.Params, pool, srcTok) {
			if len(out) >= opts.MaxCandidates {
				return out
			}
			root := irlib.NewTerm(b, combo)
			if root.Size() > opts.MaxTermSize+4 {
				continue
			}
			out = append(out, &irlib.Atomic{Kind: g.Kind, Root: root, ID: len(out)})
		}
	}
	return out
}

// combos enumerates argument tuples: each parameter position draws from
// the pool of terms producing its token. Special case: the source
// instruction token draws only the input leaf.
func combos(params []irlib.Tok, pool map[irlib.Tok][]*irlib.Term, srcTok irlib.Tok) [][]*irlib.Term {
	if len(params) == 0 {
		return [][]*irlib.Term{nil}
	}
	choices := make([][]*irlib.Term, len(params))
	for i, p := range params {
		choices[i] = pool[p]
		if len(choices[i]) == 0 {
			return nil
		}
	}
	var out [][]*irlib.Term
	cur := make([]*irlib.Term, len(params))
	var rec func(i int)
	rec = func(i int) {
		if i == len(params) {
			cp := make([]*irlib.Term, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for _, t := range choices[i] {
			cur[i] = t
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// CheckFeasible verifies that an atomic translator's term tree satisfies
// Definition 4.2 with respect to the graph: the consumption rule (every
// API call consumes exactly one term per declared parameter, with
// matching tokens) and the reachability rule (every non-root term feeds
// the root, and the root produces the target instruction token).
func (g *Graph) CheckFeasible(a *irlib.Atomic) bool {
	if a.Root.API == nil || a.Root.API.Ret != irlib.InstTok(irlib.SideTgt, g.Kind) {
		return false
	}
	srcTok := irlib.InstTok(irlib.SideSrc, g.Kind)
	var ok func(t *irlib.Term) bool
	ok = func(t *irlib.Term) bool {
		if t.IsInput() {
			return true
		}
		if len(t.Args) != len(t.API.Params) {
			return false
		}
		for i, arg := range t.Args {
			want := t.API.Params[i]
			got := arg.Tok()
			if arg.IsInput() {
				got = srcTok
			}
			if got != want {
				return false
			}
			if !ok(arg) {
				return false
			}
		}
		return true
	}
	return ok(a.Root)
}

// Distribution buckets candidate counts the way Fig. 12(a) of the paper
// reports them: [1-3], [4-10], [11-100], >100.
func Distribution(counts []int) map[string]int {
	out := map[string]int{"[1-3]": 0, "[4-10]": 0, "[11-100]": 0, ">100": 0}
	for _, n := range counts {
		switch {
		case n <= 3:
			out["[1-3]"]++
		case n <= 10:
			out["[4-10]"]++
		case n <= 100:
			out["[11-100]"]++
		default:
			out[">100"]++
		}
	}
	return out
}

// SortAtomics orders candidates deterministically by structural key.
func SortAtomics(as []*irlib.Atomic) {
	sort.Slice(as, func(i, j int) bool { return as[i].Key() < as[j].Key() })
	for i, a := range as {
		a.ID = i
	}
}
