package irtext

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/version"
)

// mustParse parses src at version v or fails the test.
func mustParse(t *testing.T, src string, v version.V) *ir.Module {
	t.Helper()
	m, err := Parse(src, v)
	if err != nil {
		t.Fatalf("Parse(%s): %v\nsource:\n%s", v, err, src)
	}
	return m
}

// roundTrip writes m at its version and re-parses the output, asserting
// the second write is byte-identical (a fixpoint).
func roundTrip(t *testing.T, m *ir.Module) *ir.Module {
	t.Helper()
	w := NewWriter(m.Ver)
	text1, err := w.WriteModule(m)
	if err != nil {
		t.Fatalf("WriteModule: %v", err)
	}
	m2, err := Parse(text1, m.Ver)
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, text1)
	}
	text2, err := w.WriteModule(m2)
	if err != nil {
		t.Fatalf("WriteModule(reparsed): %v", err)
	}
	if text1 != text2 {
		t.Fatalf("round trip not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	return m2
}

const modernProgram = `
define i32 @main() {
entry:
  %a = add i32 1, 2
  %p = alloca i32
  store i32 %a, i32* %p
  %v = load i32, i32* %p
  %c = icmp eq i32 %v, 3
  br i1 %c, label %then, label %else
then:
  ret i32 42
else:
  ret i32 7
}
`

func TestParseModernProgram(t *testing.T) {
	m := mustParse(t, modernProgram, version.V12_0)
	f := m.Func("main")
	if f == nil {
		t.Fatal("main not found")
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(f.Blocks))
	}
	if f.Blocks[0].Insts[0].Op != ir.Add {
		t.Fatalf("first inst = %s", f.Blocks[0].Insts[0].Op)
	}
}

func TestLegacyLoadSyntax(t *testing.T) {
	legacy := `
define i32 @main() {
entry:
  %p = alloca i32
  store i32 5, i32* %p
  %v = load i32* %p
  ret i32 %v
}
`
	m := mustParse(t, legacy, version.V3_6)
	ld := m.Func("main").Blocks[0].Insts[2]
	if ld.Op != ir.Load || !ld.Typ.Equal(ir.I32) {
		t.Fatalf("legacy load parsed as %s : %s", ld.Op, ld.Typ)
	}
}

// The version trap itself: each reader must reject the other's grammar.
func TestTextIncompatibility(t *testing.T) {
	modernLoad := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32, i32* %p\n  ret i32 %v\n}\n"
	legacyLoad := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32* %p\n  ret i32 %v\n}\n"

	if _, err := Parse(modernLoad, version.V3_6); err == nil {
		t.Error("3.6 reader accepted modern load syntax")
	}
	if _, err := Parse(legacyLoad, version.V12_0); err == nil {
		t.Error("12.0 reader accepted legacy load syntax")
	}
	opaque := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32, ptr %p\n  ret i32 %v\n}\n"
	if _, err := Parse(opaque, version.V12_0); err == nil {
		t.Error("12.0 reader accepted opaque-pointer syntax")
	}
	if _, err := Parse(opaque, version.V15_0); err != nil {
		t.Errorf("15.0 reader rejected its own opaque-pointer syntax: %v", err)
	}
}

// Detect tries only the readers it is given, newest first, and a text
// no reader accepts is a Parse failure.
func TestDetectNewestFirst(t *testing.T) {
	modernLoad := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32, i32* %p\n  ret i32 %v\n}\n"
	opaque := "define i32 @main() {\nentry:\n  %p = alloca i32\n  %v = load i32, ptr %p\n  ret i32 %v\n}\n"
	restricted := []version.V{version.V3_6, version.V12_0}
	if _, v, err := Detect(modernLoad, restricted); err != nil || v != version.V12_0 {
		t.Fatalf("detected %s (%v), want 12.0", v, err)
	}
	if _, _, err := Detect(opaque, restricted); !errors.Is(err, failure.Parse) {
		t.Fatalf("opaque text outside the version set: err = %v, want a Parse failure", err)
	}
	if _, v, err := Detect(modernLoad, version.All); err != nil || v != version.V14_0 {
		t.Fatalf("detected %s (%v) over every version, want the newest typed-pointer reader 14.0", v, err)
	}
}

func TestVersionIllegalInstructionRejected(t *testing.T) {
	prog := "define i32 @main() {\nentry:\n  %f = freeze i32 1\n  ret i32 %f\n}\n"
	if _, err := Parse(prog, version.V3_6); err == nil {
		t.Error("3.6 reader accepted freeze")
	}
	if _, err := Parse(prog, version.V12_0); err != nil {
		t.Errorf("12.0 reader rejected freeze: %v", err)
	}
}

func TestWriterVersionMismatchRejected(t *testing.T) {
	m := mustParse(t, modernProgram, version.V12_0)
	if _, err := NewWriter(version.V3_6).WriteModule(m); err == nil {
		t.Error("writer serialized module of a different version")
	}
}

func TestRoundTripAllCoreInstructions(t *testing.T) {
	src := `
@g = global i32 10
@tab = constant [2 x i32] [i32 3, i32 4]

declare i32 @ext(i32)
declare i32 @vprintf(i32, ...)

define i32 @helper(i32 %x) {
entry:
  ret i32 %x
}

define i32 @main() {
entry:
  %a = add i32 2, 3
  %b = sub i32 %a, 1
  %c = mul i32 %b, %b
  %d = sdiv i32 %c, 2
  %e = srem i32 %d, 7
  %f = udiv i32 %c, 3
  %g2 = urem i32 %c, 5
  %h = shl i32 %a, 1
  %i2 = lshr i32 %h, 1
  %j = ashr i32 %h, 1
  %k = and i32 %a, %b
  %l = or i32 %a, %b
  %m = xor i32 %a, %b
  %fa = fadd double 1.5, 2.5
  %fb = fsub double %fa, 1.0
  %fc = fmul double %fb, 2.0
  %fd = fdiv double %fc, 3.0
  %fe = frem double %fd, 2.0
  %fn = fneg double %fe
  %p = alloca i32
  store i32 %a, i32* %p
  %v = load i32, i32* %p
  %arr = alloca [4 x i32]
  %q = getelementptr inbounds [4 x i32], [4 x i32]* %arr, i32 0, i32 2
  store i32 9, i32* %q
  %t1 = trunc i32 %a to i8
  %t2 = zext i8 %t1 to i32
  %t3 = sext i8 %t1 to i64
  %t4 = fptrunc double %fa to float
  %t5 = fpext float %t4 to double
  %t6 = fptosi double %fa to i32
  %t7 = fptoui double %fa to i32
  %t8 = sitofp i32 %a to double
  %t9 = uitofp i32 %a to double
  %ta = ptrtoint i32* %p to i64
  %tb = inttoptr i64 %ta to i32*
  %tc = bitcast i32* %p to i8*
  %cmp = icmp slt i32 %a, %b
  %fcm = fcmp olt double %fa, %fb
  %sel = select i1 %cmp, i32 %a, i32 %b
  %call = call i32 @ext(i32 %sel)
  %vc = call i32 (i32, ...) @vprintf(i32 1, i32 2)
  %vec = insertelement <2 x i32> undef, i32 %a, i32 0
  %vec2 = insertelement <2 x i32> %vec, i32 %b, i32 1
  %ee = extractelement <2 x i32> %vec2, i32 0
  %sh = shufflevector <2 x i32> %vec2, <2 x i32> %vec2, <2 x i32> zeroinitializer
  %agg = insertvalue { i32, i32 } undef, i32 %a, 0
  %ev = extractvalue { i32, i32 } %agg, 0
  %rmw = atomicrmw add i32* %p, i32 1 seq_cst
  %cx = cmpxchg i32* %p, i32 %a, i32 %b seq_cst
  fence seq_cst
  br label %loop
loop:
  %phi = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %phi, 1
  %done = icmp sge i32 %next, 3
  br i1 %done, label %after, label %loop
after:
  switch i32 %next, label %def [ i32 1, label %case1 i32 2, label %case2 ]
case1:
  ret i32 1
case2:
  ret i32 2
def:
  %iv = call i32 @helper(i32 %next)
  ret i32 %iv
}
`
	m := mustParse(t, src, version.V12_0)
	roundTrip(t, m)
}

func TestRoundTripLegacyVersion(t *testing.T) {
	src := `
define i32 @main() {
entry:
  %p = alloca [3 x i32]
  %q = getelementptr inbounds [3 x i32]* %p, i32 0, i32 1
  store i32 5, i32* %q
  %v = load i32* %q
  %asc = addrspacecast i32* %q to i32 addrspace(1)*
  ret i32 %v
}
`
	m := mustParse(t, src, version.V3_6)
	roundTrip(t, m)
}

func TestRoundTripOpaquePointers(t *testing.T) {
	src := `
define i32 @main() {
entry:
  %p = alloca i32
  store i32 5, ptr %p
  %v = load i32, ptr %p
  ret i32 %v
}
`
	m := mustParse(t, src, version.V15_0)
	roundTrip(t, m)
}

func TestRoundTripInvokeLandingpadResume(t *testing.T) {
	src := `
declare i32 @may_throw(i32)

define i32 @main() {
entry:
  %r = invoke i32 @may_throw(i32 1) to label %ok unwind label %bad
ok:
  ret i32 %r
bad:
  %lp = landingpad { i8*, i32 } cleanup
  resume { i8*, i32 } %lp
}
`
	m := mustParse(t, src, version.V12_0)
	roundTrip(t, m)
}

func TestRoundTripNewInstructions(t *testing.T) {
	src := `
define i32 @main() {
entry:
  %x = add i32 1, 2
  %fr = freeze i32 %x
  callbr void asm "jmp ${0:l}", "X"() to label %direct [label %indirect]
direct:
  ret i32 %fr
indirect:
  ret i32 0
}
`
	m := mustParse(t, src, version.V12_0)
	m2 := roundTrip(t, m)
	cb := m2.Func("main").Blocks[0].Insts[2]
	if cb.Op != ir.CallBr || cb.Attrs.NumIndire != 1 {
		t.Fatalf("callbr reparsed as %s with %d indirect dests", cb.Op, cb.Attrs.NumIndire)
	}
}

func TestRoundTripEHInstructions(t *testing.T) {
	src := `
define void @eh() {
entry:
  %cs = catchswitch within none [label %handler] unwind to caller
handler:
  %cp = catchpad within %cs [i32 1]
  catchret from %cp to label %done
done:
  %cl = cleanuppad within none []
  cleanupret from %cl unwind to caller
}
`
	m := mustParse(t, src, version.V12_0)
	roundTrip(t, m)
}

func TestRoundTripIndirectCallAndVaarg(t *testing.T) {
	src := `
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}

define i32 @main() {
entry:
  %fp = alloca i32 (i32)*
  store i32 (i32)* @callee, i32 (i32)** %fp
  %f = load i32 (i32)*, i32 (i32)** %fp
  %r = call i32 %f(i32 3)
  ret i32 %r
}
`
	m := mustParse(t, src, version.V12_0)
	roundTrip(t, m)
}

func TestForwardReferences(t *testing.T) {
	src := `
define i32 @main() {
entry:
  br label %loop
loop:
  %x = phi i32 [ 0, %entry ], [ %y, %loop ]
  %y = add i32 %x, 1
  %c = icmp eq i32 %y, 5
  br i1 %c, label %exit, label %loop
exit:
  ret i32 %y
}
`
	m := mustParse(t, src, version.V12_0)
	phi := m.Func("main").Block("loop").Insts[0]
	v, _ := phi.PhiIncoming(1)
	if inst, ok := v.(*ir.Instruction); !ok || inst.Name != "y" {
		t.Fatalf("forward phi operand not resolved: %v", v)
	}
}

func TestUndefinedValueRejected(t *testing.T) {
	src := "define i32 @main() {\nentry:\n  ret i32 %nope\n}\n"
	if _, err := Parse(src, version.V12_0); err == nil ||
		!strings.Contains(err.Error(), "undefined") {
		t.Fatalf("expected undefined-value error, got %v", err)
	}
}

func TestUndefinedBlockRejected(t *testing.T) {
	src := "define void @main() {\nentry:\n  br label %ghost\n}\n"
	if _, err := Parse(src, version.V12_0); err == nil {
		t.Fatal("expected undefined-block error")
	}
}

func TestDuplicateSSANameRejected(t *testing.T) {
	src := "define i32 @main() {\nentry:\n  %x = add i32 1, 1\n  %x = add i32 2, 2\n  ret i32 %x\n}\n"
	if _, err := Parse(src, version.V12_0); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestCallToUndefinedSymbolRejected(t *testing.T) {
	src := "define i32 @main() {\nentry:\n  %r = call i32 @ghost(i32 1)\n  ret i32 %r\n}\n"
	if _, err := Parse(src, version.V12_0); err == nil {
		t.Fatal("expected undefined-symbol error")
	}
}

func TestGlobalsRoundTrip(t *testing.T) {
	src := `
@counter = global i32 0
@table = constant [3 x i32] [i32 1, i32 2, i32 3]
@pair = global { i32, i64 } { i32 7, i64 9 }
@buf = external global [16 x i8]

define i32 @main() {
entry:
  %v = load i32, i32* @counter
  ret i32 %v
}
`
	m := mustParse(t, src, version.V12_0)
	m2 := roundTrip(t, m)
	if g := m2.GlobalByName("table"); g == nil || !g.Const {
		t.Fatal("constant global lost")
	}
	if g := m2.GlobalByName("buf"); g == nil || g.Init != nil {
		t.Fatal("external global lost")
	}
}

func TestInlineAsmRoundTrip(t *testing.T) {
	src := `
define i32 @main() {
entry:
  call void asm "nop", ""()
  ret i32 0
}
`
	m := mustParse(t, src, version.V12_0)
	m2 := roundTrip(t, m)
	call := m2.Func("main").Blocks[0].Insts[0]
	if _, ok := call.Callee().(*ir.InlineAsm); !ok {
		t.Fatalf("callee = %T, want InlineAsm", call.Callee())
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"define i32 @main() { entry: %x = add i32 1, 2 \x01 }",
		`@g = global i32 "unterminated`,
		"% = add",
	}
	for _, src := range bad {
		if _, err := Parse(src, version.V12_0); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestParseErrorsMentionLine(t *testing.T) {
	src := "define i32 @main() {\nentry:\n  %x = bogus i32 1\n  ret i32 %x\n}\n"
	_, err := Parse(src, version.V12_0)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

// Property: inline-asm payloads survive the write/parse round trip for
// arbitrary byte content, including quotes, backslashes, and control
// characters (the %q writer and the lexer's unescaping must agree).
func TestAsmStringRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		// Strings are byte payloads; keep them modest.
		if len(payload) > 64 {
			payload = payload[:64]
		}
		asm := string(payload)
		m := ir.NewModule("p", version.V12_0)
		fn := m.AddFunc(ir.NewFunction("main", ir.Func(ir.I32, nil, false), nil))
		b := ir.NewBuilder(fn)
		b.NewBlock("entry")
		b.Call(&ir.InlineAsm{Typ: ir.Func(ir.Void, nil, false), Asm: asm, Constraints: "X"})
		b.Ret(ir.ConstI32(0))
		text, err := NewWriter(version.V12_0).WriteModule(m)
		if err != nil {
			return false
		}
		m2, err := Parse(text, version.V12_0)
		if err != nil {
			return false
		}
		call := m2.Func("main").Blocks[0].Insts[0]
		ia, ok := call.Callee().(*ir.InlineAsm)
		return ok && ia.Asm == asm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
