package irlib

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Term is one node of an atomic-translator body: an API call whose
// arguments are other terms. A nil API marks the distinguished leaf — the
// source instruction being translated. A Term tree is exactly a feasible
// subgraph in the sense of Definition 4.2: every API node consumes one
// term per parameter (consumption rule) and the root produces the target
// instruction token (reachability rule).
//
// Terms are immutable once built. Candidate generation builds them with
// NewTerm, which stores the structural key, and the GenCache then shares
// them read-only across concurrent synthesizers; a literal Term (the
// input leaf, terms assembled by hand) has no stored key and renders it
// on every Key call.
type Term struct {
	API  *API
	Args []*Term

	key string // structural key stored by NewTerm; "" renders on demand
}

// NewTerm builds the term api(args...) and computes its structural key
// once, from the arguments' keys. Nothing may modify the term or its
// arguments afterwards: the stored key would go stale.
func NewTerm(api *API, args []*Term) *Term {
	t := &Term{API: api, Args: args}
	t.key = t.renderKey()
	return t
}

// InputTerm is the shared leaf denoting the instruction under translation.
var InputTerm = &Term{}

// IsInput reports whether t is the input leaf.
func (t *Term) IsInput() bool { return t.API == nil }

// Tok returns the token the term produces; the input leaf's token depends
// on the instruction kind and is reported as "Inst".
func (t *Term) Tok() Tok {
	if t.IsInput() {
		return Src("Inst")
	}
	return t.API.Ret
}

// Key is the term's structural identity string, used for
// deduplication, memoization and persistence: the API name applied to
// the arguments' keys, with "inst" for the input leaf. A term built by
// NewTerm returns its stored key; any other term renders it, so Key
// never writes to a term that other goroutines may be reading.
func (t *Term) Key() string {
	if t.key != "" {
		return t.key
	}
	return t.renderKey()
}

func (t *Term) renderKey() string {
	if t.IsInput() {
		return "inst"
	}
	if len(t.Args) == 0 {
		return t.API.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.Key()
	}
	return t.API.Name + "(" + strings.Join(parts, ",") + ")"
}

// Eval executes the term against a source instruction within a
// translation context. Any API-domain error aborts the evaluation.
func (t *Term) Eval(c *Ctx, input *ir.Instruction) (any, error) {
	if t.IsInput() {
		return input, nil
	}
	args := make([]any, len(t.Args))
	for i, a := range t.Args {
		v, err := a.Eval(c, input)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return t.API.Impl(c, args)
}

// Size returns the number of API calls in the term.
func (t *Term) Size() int {
	if t.IsInput() {
		return 0
	}
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Atomic is a candidate atomic translator λ of Definition 3.1: a term
// whose root builder produces the target-version instruction of a kind.
type Atomic struct {
	Kind ir.Opcode
	Root *Term
	ID   int
}

// Key is the structural identity of the atomic translator.
func (a *Atomic) Key() string { return a.Root.Key() }

// Apply runs the atomic translator on a source instruction, returning the
// constructed target instruction.
func (a *Atomic) Apply(c *Ctx, inst *ir.Instruction) (*ir.Instruction, error) {
	v, err := a.Root.Eval(c, inst)
	if err != nil {
		return nil, err
	}
	out, ok := v.(*ir.Instruction)
	if !ok {
		return nil, errf("atomic for %s produced %T, want instruction", a.Kind, v)
	}
	return out, nil
}

// Render emits the atomic translator as C++-like source, mirroring the
// listings in Figs. 4/9/11 of the paper. The output is what the LOC
// columns of Table 3 count.
func (a *Atomic) Render(name string) string {
	var b strings.Builder
	kind := camel(a.Kind)
	fmt.Fprintf(&b, "%s_t %s(%s_s inst) {\n", kind, name, kind)
	var n int
	names := map[*Term]string{}
	var walk func(t *Term) string
	walk = func(t *Term) string {
		if t.IsInput() {
			return "inst"
		}
		if nm, ok := names[t]; ok {
			return nm
		}
		argNames := make([]string, len(t.Args))
		for i, arg := range t.Args {
			argNames[i] = walk(arg)
		}
		call := renderCall(t.API, argNames)
		if t == a.Root {
			return call
		}
		n++
		nm := fmt.Sprintf("v%d", n)
		names[t] = nm
		fmt.Fprintf(&b, "  %s %s = %s;\n", renderTok(t.API.Ret), nm, call)
		return nm
	}
	root := walk(a.Root)
	fmt.Fprintf(&b, "  return %s;\n}\n", root)
	return b.String()
}

func renderCall(api *API, args []string) string {
	switch api.Class {
	case ClassGetter:
		if len(args) > 0 && args[0] == "inst" {
			return fmt.Sprintf("inst.%s(%s)", api.Name, strings.Join(args[1:], ", "))
		}
		if len(args) > 0 {
			return fmt.Sprintf("%s.%s(%s)", args[0], api.Name, strings.Join(args[1:], ", "))
		}
		return api.Name + "()"
	case ClassBuilder:
		return fmt.Sprintf("Builder.%s(%s)", api.Name, strings.Join(args, ", "))
	case ClassConst:
		return strings.TrimPrefix(api.Name, "Int")
	default:
		return fmt.Sprintf("%s(%s)", api.Name, strings.Join(args, ", "))
	}
}

func renderTok(t Tok) string {
	name := t.Name
	if strings.HasPrefix(name, "Inst:") {
		op, _ := ir.OpcodeByName(strings.TrimPrefix(name, "Inst:"))
		name = camel(op)
	}
	if t.Side == SideNeutral {
		return name
	}
	return name + "_" + t.Side.String()
}
