package irtext

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/version"
)

// Parse reads a textual IR module using the grammar of version v — the
// "IR Reader" library of Table 2. A parser pinned at one version rejects
// syntax belonging to another version; that rejection is the text
// incompatibility that motivates IR translation.
//
// Every failure — lex, grammar, verification, or an internal parser
// panic on pathological input — is classified failure.Parse; malformed
// text never crashes the caller.
func Parse(src string, v version.V) (m *ir.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, failure.Wrapf(failure.Parse, "irtext: parser panicked: %v", r)
		}
	}()
	toks, err := lex(src)
	if err != nil {
		return nil, failure.Wrap(failure.Parse, err)
	}
	p := &parser{toks: toks, ver: v, feat: version.FeaturesOf(v)}
	m, err = p.module()
	if err != nil {
		return nil, failure.Wrap(failure.Parse, err)
	}
	if verr := ir.Verify(m); verr != nil {
		return nil, failure.Wrap(failure.Parse, verr)
	}
	return m, nil
}

// Detect parses text with each reader in versions, newest first, and
// returns the module plus the version whose reader accepted it.
// versions must be ascending, as version.All is. When no reader
// accepts the text the error is classified failure.Parse and carries
// the newest reader's complaint.
func Detect(text string, versions []version.V) (*ir.Module, version.V, error) {
	var firstErr error
	for i := len(versions) - 1; i >= 0; i-- {
		m, err := Parse(text, versions[i])
		if err == nil {
			return m, versions[i], nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, version.V{}, failure.Wrapf(failure.Parse,
		"irtext: no reader accepts the input (newest reader said: %w)", firstErr)
}

type parser struct {
	toks []token
	pos  int
	ver  version.V
	feat version.Features
	m    *ir.Module

	f       *ir.Function
	locals  map[string]ir.Value
	blocks  map[string]*ir.Block
	defined map[string]bool // block names with a real label definition
	fixups  []fixup
}

// fixup records an operand slot awaiting a yet-undefined local value.
type fixup struct {
	inst *ir.Instruction
	idx  int
	name string
	line int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.peek().text == text && (p.peek().kind == tokPunct || p.peek().kind == tokWord) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	return nil
}

// module drives the two passes: shell declaration, then bodies.
func (p *parser) module() (*ir.Module, error) {
	p.m = ir.NewModule("parsed", p.ver)
	if err := p.declarePass(); err != nil {
		return nil, err
	}
	p.pos = 0
	if err := p.bodyPass(); err != nil {
		return nil, err
	}
	return p.m, nil
}

// declarePass creates globals and function shells so that bodies can
// reference symbols defined later in the file.
func (p *parser) declarePass() error {
	for p.peek().kind != tokEOF {
		switch {
		case p.peek().kind == tokGlobal:
			if err := p.globalDef(); err != nil {
				return err
			}
		case p.peek().text == "declare" || p.peek().text == "define":
			if err := p.funcShell(); err != nil {
				return err
			}
		default:
			return p.errf("expected global or function, found %s", p.peek())
		}
	}
	return nil
}

func (p *parser) globalDef() error {
	name := p.next().text
	if err := p.expect("="); err != nil {
		return err
	}
	if p.accept("external") {
		p.accept("global")
		p.accept("constant")
		t, err := p.typ()
		if err != nil {
			return err
		}
		p.m.AddGlobal(&ir.Global{Name: name, Content: t})
		return nil
	}
	isConst := false
	switch {
	case p.accept("global"):
	case p.accept("constant"):
		isConst = true
	default:
		return p.errf("expected 'global' or 'constant'")
	}
	t, err := p.typ()
	if err != nil {
		return err
	}
	init, err := p.constant(t)
	if err != nil {
		return err
	}
	p.m.AddGlobal(&ir.Global{Name: name, Content: t, Init: init, Const: isConst})
	return nil
}

// funcShell parses a declare/define header; in the declare pass it
// registers the function, in the body pass it re-parses and is ignored.
func (p *parser) funcShell() error {
	isDef := p.next().text == "define"
	ret, err := p.typ()
	if err != nil {
		return err
	}
	if p.peek().kind != tokGlobal {
		return p.errf("expected function name, found %s", p.peek())
	}
	name := p.next().text
	if err := p.expect("("); err != nil {
		return err
	}
	var ptypes []*ir.Type
	var pnames []string
	variadic := false
	for !p.accept(")") {
		if len(ptypes) > 0 || variadic {
			if err := p.expect(","); err != nil {
				return err
			}
		}
		if p.accept("...") {
			variadic = true
			continue
		}
		pt, err := p.typ()
		if err != nil {
			return err
		}
		pn := ""
		if p.peek().kind == tokLocal {
			pn = p.next().text
		}
		ptypes = append(ptypes, pt)
		pnames = append(pnames, pn)
	}
	sig := ir.Func(ret, ptypes, variadic)
	f := ir.NewFunction(name, sig, pnames)
	p.m.AddFunc(f)
	if isDef {
		// Skip the body in this pass.
		if err := p.expect("{"); err != nil {
			return err
		}
		depth := 1
		for depth > 0 {
			t := p.next()
			if t.kind == tokEOF {
				return p.errf("unterminated function body")
			}
			if t.kind == tokPunct {
				switch t.text {
				case "{":
					depth++
				case "}":
					depth--
				}
			}
		}
	}
	return nil
}

// bodyPass re-walks the token stream filling in function bodies.
func (p *parser) bodyPass() error {
	for p.peek().kind != tokEOF {
		switch {
		case p.peek().kind == tokGlobal:
			if err := p.skipGlobal(); err != nil {
				return err
			}
		case p.peek().text == "declare":
			if err := p.skipToHeaderEnd(); err != nil {
				return err
			}
		case p.peek().text == "define":
			if err := p.funcBody(); err != nil {
				return err
			}
		default:
			return p.errf("unexpected %s", p.peek())
		}
	}
	return nil
}

func (p *parser) skipGlobal() error {
	// Re-parse the global definition (cheap) and discard.
	save := len(p.m.Globals)
	if err := p.globalDef(); err != nil {
		return err
	}
	p.m.Globals = p.m.Globals[:save]
	return nil
}

func (p *parser) skipToHeaderEnd() error {
	// declare RET @name(params)
	p.next() // declare
	if _, err := p.typ(); err != nil {
		return err
	}
	p.next() // @name
	if err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.kind == tokEOF {
			return p.errf("unterminated declare")
		}
		if t.kind == tokPunct {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	return nil
}

func (p *parser) funcBody() error {
	p.next() // define
	if _, err := p.typ(); err != nil {
		return err
	}
	name := p.next().text
	f := p.m.Func(name)
	if f == nil {
		return p.errf("internal: function @%s vanished between passes", name)
	}
	// Skip the header param list.
	if err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.kind == tokEOF {
			return p.errf("unterminated param list")
		}
		if t.kind == tokPunct {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	if err := p.expect("{"); err != nil {
		return err
	}

	p.f = f
	p.locals = map[string]ir.Value{}
	p.blocks = map[string]*ir.Block{}
	p.defined = map[string]bool{}
	p.fixups = nil
	for _, prm := range f.Params {
		p.locals[prm.Name] = prm
	}

	var cur *ir.Block
	for {
		switch {
		case p.peek().kind == tokLabelDef:
			lbl := p.next().text
			cur = p.block(lbl)
			if p.defined[lbl] {
				return p.errf("block %%%s redefined", lbl)
			}
			p.defined[lbl] = true
			// Attach in definition order.
			f.Blocks = append(f.Blocks, cur)
		case p.accept("}"):
			if err := p.finishFunc(); err != nil {
				return err
			}
			if p.feat.OpaquePointers {
				reconstructPointees(f)
			}
			return nil
		case p.peek().kind == tokEOF:
			return p.errf("unterminated function @%s", name)
		default:
			if cur == nil {
				return p.errf("instruction before first block label")
			}
			inst, err := p.instruction()
			if err != nil {
				return err
			}
			cur.Append(inst)
			if inst.HasResult() {
				if _, dup := p.locals[inst.Name]; dup {
					return p.errf("SSA name %%%s redefined", inst.Name)
				}
				p.locals[inst.Name] = inst
			}
		}
	}
}

// reconstructPointees runs after parsing a function body in the
// opaque-pointer dialect. The text erases every pointee ("ptr"), so the
// parser models opaque pointers as i8*. That is harmless while the
// module stays in an opaque-pointer world, but translating to a
// typed-pointer target bakes the i8 in — and a legacy (< 3.7) writer
// has no explicit load type left to recover the real element type
// from, so `load i32, ptr %p` would silently become a load of i8.
//
// This pass re-types the pointer-producing instructions whose pointee
// is recoverable from their memory uses: when every load and store
// through the value agrees on one element type, the value becomes a
// pointer to that type. Values with no typed uses, or with conflicting
// ones (not representable as a single typed pointer anyway), keep i8*.
// Only bitcast, inttoptr and load results are re-typed — the
// instructions whose result type comes verbatim from an opaque `ptr`
// token; allocas and GEPs carry explicit element types in every era.
func reconstructPointees(f *ir.Function) {
	demand := make(map[*ir.Instruction]*ir.Type)
	conflict := make(map[*ir.Instruction]bool)
	note := func(v ir.Value, t *ir.Type) {
		inst, ok := v.(*ir.Instruction)
		if !ok {
			return
		}
		switch inst.Op {
		case ir.BitCast, ir.IntToPtr:
		case ir.Load:
			if !inst.Typ.IsPointer() {
				return
			}
		default:
			return
		}
		if prev, dup := demand[inst]; dup && !prev.Equal(t) {
			conflict[inst] = true
			return
		}
		demand[inst] = t
	}
	for _, b := range f.Blocks {
		for _, inst := range b.Insts {
			switch inst.Op {
			case ir.Load:
				note(inst.Operands[0], inst.Typ)
			case ir.Store:
				note(inst.Operands[1], inst.Operands[0].Type())
			}
		}
	}
	for inst, t := range demand {
		if conflict[inst] {
			continue
		}
		inst.Typ = ir.Ptr(t)
		if inst.Op == ir.Load {
			inst.Attrs.ElemTy = inst.Typ
		}
	}
}

// block returns the (possibly forward-referenced) block named name.
// Blocks are NOT attached to the function here; attachment happens at
// label definition to preserve source order.
func (p *parser) block(name string) *ir.Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := &ir.Block{Name: name, Parent: p.f}
	p.blocks[name] = b
	return b
}

func (p *parser) finishFunc() error {
	for _, fx := range p.fixups {
		v, ok := p.locals[fx.name]
		if !ok {
			return fmt.Errorf("line %d: use of undefined value %%%s", fx.line, fx.name)
		}
		fx.inst.Operands[fx.idx] = v
	}
	for name, b := range p.blocks {
		if !p.defined[name] {
			return fmt.Errorf("function @%s: branch to undefined block %%%s", p.f.Name, b.Name)
		}
	}
	p.f = nil
	return nil
}

// typ parses a type in the parser's version grammar.
func (p *parser) typ() (*ir.Type, error) {
	t, err := p.primaryType()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekPunct("*"):
			if p.feat.OpaquePointers {
				return nil, p.errf("typed pointer syntax %q* was removed at 15.0; this reader is %s", t, p.ver)
			}
			p.next()
			t = ir.Ptr(t)
		case p.peek().text == "addrspace" && p.peek().kind == tokWord:
			p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			as, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if p.feat.OpaquePointers && t.Kind == ir.PointerKind {
				t = ir.PtrAS(t.Elem, int(as))
			} else {
				if err := p.expect("*"); err != nil {
					return nil, err
				}
				t = ir.PtrAS(t, int(as))
			}
		case p.peekPunct("("):
			p.next()
			var params []*ir.Type
			variadic := false
			for !p.accept(")") {
				if len(params) > 0 || variadic {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				if p.accept("...") {
					variadic = true
					continue
				}
				pt, err := p.typ()
				if err != nil {
					return nil, err
				}
				params = append(params, pt)
			}
			t = ir.Func(t, params, variadic)
		default:
			return t, nil
		}
	}
}

func (p *parser) peekPunct(s string) bool {
	return p.peek().kind == tokPunct && p.peek().text == s
}

func (p *parser) primaryType() (*ir.Type, error) {
	t := p.peek()
	switch {
	case t.kind == tokWord && t.text == "void":
		p.next()
		return ir.Void, nil
	case t.kind == tokWord && t.text == "label":
		p.next()
		return ir.Label, nil
	case t.kind == tokWord && t.text == "token":
		p.next()
		return ir.Token, nil
	case t.kind == tokWord && t.text == "float":
		p.next()
		return ir.F32, nil
	case t.kind == tokWord && t.text == "double":
		p.next()
		return ir.F64, nil
	case t.kind == tokWord && t.text == "ptr":
		if !p.feat.OpaquePointers {
			return nil, p.errf("unknown type 'ptr' (opaque pointers require IR >= 15.0, this reader is %s)", p.ver)
		}
		p.next()
		// Opaque pointers erase the pointee; model as i8*.
		return ir.Ptr(ir.I8), nil
	case t.kind == tokWord && strings.HasPrefix(t.text, "i"):
		bits, err := strconv.Atoi(t.text[1:])
		if err == nil && bits > 0 && bits <= 128 {
			p.next()
			return ir.Int(bits), nil
		}
		return nil, p.errf("unknown type %q", t.text)
	case p.peekPunct("["):
		p.next()
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		if err := p.expect("x"); err != nil {
			return nil, err
		}
		elem, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return ir.Arr(int(n), elem), nil
	case p.peekPunct("<"):
		p.next()
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		if err := p.expect("x"); err != nil {
			return nil, err
		}
		elem, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return ir.Vec(int(n), elem), nil
	case p.peekPunct("{"):
		p.next()
		var fields []*ir.Type
		for !p.accept("}") {
			if len(fields) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			ft, err := p.typ()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ft)
		}
		return ir.Struct(fields...), nil
	}
	return nil, p.errf("expected type, found %s", t)
}

func (p *parser) intLit() (int64, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, p.errf("expected integer, found %s", t)
	}
	p.next()
	return strconv.ParseInt(t.text, 10, 64)
}

// value parses a value reference of the given type. Unresolved local
// names yield a placeholder plus a fixup recorded by the caller via slot.
func (p *parser) value(t *ir.Type) (ir.Value, string, error) {
	tok := p.peek()
	switch tok.kind {
	case tokLocal:
		p.next()
		if t.Kind == ir.LabelKind {
			return p.block(tok.text), "", nil
		}
		if v, ok := p.locals[tok.text]; ok {
			return v, "", nil
		}
		return nil, tok.text, nil // forward reference
	case tokGlobal:
		p.next()
		if f := p.m.Func(tok.text); f != nil {
			return f, "", nil
		}
		if g := p.m.GlobalByName(tok.text); g != nil {
			return g, "", nil
		}
		return nil, "", p.errf("use of undefined global @%s", tok.text)
	default:
		c, err := p.constant(t)
		if err != nil {
			return nil, "", err
		}
		return c, "", nil
	}
}

// constant parses a constant literal of the given type.
func (p *parser) constant(t *ir.Type) (ir.Constant, error) {
	tok := p.peek()
	switch {
	case tok.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", tok.text)
		}
		return ir.NewConstInt(t, v), nil
	case tok.kind == tokFloat:
		p.next()
		v, err := strconv.ParseFloat(tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", tok.text)
		}
		return &ir.ConstFloat{Typ: t, V: v}, nil
	case tok.text == "true":
		p.next()
		return ir.ConstBool(true), nil
	case tok.text == "false":
		p.next()
		return ir.ConstBool(false), nil
	case tok.text == "null":
		p.next()
		return &ir.ConstNull{Typ: t}, nil
	case tok.text == "undef":
		p.next()
		return &ir.ConstUndef{Typ: t}, nil
	case tok.text == "zeroinitializer":
		p.next()
		return &ir.ConstZero{Typ: t}, nil
	case p.peekPunct("["):
		p.next()
		var elems []ir.Constant
		for !p.accept("]") {
			if len(elems) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			et, err := p.typ()
			if err != nil {
				return nil, err
			}
			ev, err := p.constant(et)
			if err != nil {
				return nil, err
			}
			elems = append(elems, ev)
		}
		return &ir.ConstArray{Typ: t, Elems: elems}, nil
	case p.peekPunct("{"):
		p.next()
		var elems []ir.Constant
		for !p.accept("}") {
			if len(elems) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			et, err := p.typ()
			if err != nil {
				return nil, err
			}
			ev, err := p.constant(et)
			if err != nil {
				return nil, err
			}
			elems = append(elems, ev)
		}
		return &ir.ConstStruct{Typ: t, Elems: elems}, nil
	}
	return nil, p.errf("expected constant of type %s, found %s", t, tok)
}
