package synth

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/irtext"
	"repro/internal/skeleton"
)

// box is one enumeration slot of a per-test translator (Alg. 3). With
// Optimization I, all instructions of a test sharing (kind, σ&) share a
// box; without it, every location is its own box.
type box struct {
	key     string
	kind    ir.Opcode
	sigma   string
	entries []*profEntry
	// classes groups the box's candidate pool into semantic-equivalence
	// classes on this test's instructions (Optimization I); each class
	// is validated through its first representative.
	classes [][]*irlib.Atomic
	// seeded marks a box whose pool came from neighbor-pair hints
	// rather than this run's own refinement; if no assignment wins, the
	// test is re-validated with seeded boxes widened to full pools.
	seeded bool
}

// processTest runs steps ➋➌➍ of Alg. 2 on one test case. When the
// first validation round ran over hint-seeded pools and found no
// winner, the seeded boxes are widened to their full pools and the
// test is validated once more before it is declared failed — a
// misleading neighbor hint must cost a retry, never a verdict.
func (s *Synthesizer) processTest(t *TestCase) error {
	// Sanity: the test itself must meet its oracle at the source version.
	res, err := interp.Run(t.Module, interp.Options{})
	if err != nil {
		return failure.Wrapf(failure.Validation, "source execution failed: %w", err)
	}
	if res.Crashed() || res.Ret != t.Oracle {
		return failure.Wrapf(failure.Validation, "source execution returned %d (crash=%q), oracle is %d",
			res.Ret, res.Crash, t.Oracle)
	}

	prof := s.profile(t)

	// ➋ Enumeration: build boxes.
	boxes, total, err := s.enumerateBoxes(prof, true)
	if err != nil {
		return err
	}

	// ➌ Validation.
	sum := s.validateBoxes(t, prof, boxes)
	if !sum.anyWin {
		seeded := false
		for _, bx := range boxes {
			if bx.seeded {
				seeded = true
				break
			}
		}
		if seeded {
			s.stats.NeighborFallbacks++
			if boxes, total, err = s.enumerateBoxes(prof, false); err != nil {
				return err
			}
			sum = s.validateBoxes(t, prof, boxes)
		}
	}
	if !sum.anyWin && len(boxes) > 0 {
		if sum.timedOut > 0 {
			return failure.Wrapf(failure.Budget, "test deadline %v expired with no winner (%d of %d validations cut off)",
				s.Opts.TestDeadline, sum.timedOut, total)
		}
		return failure.Wrapf(failure.Synthesis, "no per-test translator satisfied the oracle (%d tried)", total)
	}

	// ➍ Refinement (Alg. 4): intersect winning candidates into M*.
	start := time.Now()
	for _, bx := range boxes {
		var won []*irlib.Atomic
		for ci := range bx.classes {
			if sum.winners[bx][ci] {
				won = append(won, bx.classes[ci]...) // credit the whole class
			}
		}
		s.refine(bx.kind, bx.sigma, won)
	}
	s.stats.RefineTime += time.Since(start)
	return nil
}

// enumerateBoxes is step ➋ under wall-clock accounting: build the
// boxes, bound the per-test translator count, and count it.
func (s *Synthesizer) enumerateBoxes(prof []*profEntry, useHints bool) ([]*box, int, error) {
	start := time.Now()
	defer func() { s.stats.EnumTime += time.Since(start) }()
	boxes, err := s.buildBoxes(prof, useHints)
	if err != nil {
		return nil, 0, err
	}
	total := 1
	for _, bx := range boxes {
		total *= len(bx.classes)
		if total > s.Opts.MaxPerTest {
			return nil, 0, failure.Wrapf(failure.Budget, "per-test translator count exceeds %d (test too complex for current M*; add simpler tests first)", s.Opts.MaxPerTest)
		}
	}
	s.stats.PerTestTotal += total
	return boxes, total, nil
}

// valSummary is the outcome of one validation round over a test's
// assignment odometer.
type valSummary struct {
	winners  map[*box]map[int]bool
	anyWin   bool
	timedOut int
}

// validateBoxes is step ➌: walk the assignment odometer, validate every
// per-test translator and tally each outcome as its assignment is
// visited.
func (s *Synthesizer) validateBoxes(t *TestCase, prof []*profEntry, boxes []*box) valSummary {
	start := time.Now()
	entryBox := map[*ir.Instruction]*box{}
	for _, bx := range boxes {
		for _, e := range bx.entries {
			entryBox[e.Inst] = bx
		}
	}
	sum := valSummary{winners: map[*box]map[int]bool{}}
	for _, bx := range boxes {
		sum.winners[bx] = map[int]bool{}
	}
	byInst := map[*ir.Instruction]*profEntry{}
	for _, e := range prof {
		byInst[e.Inst] = e
	}
	var deadline time.Time
	if d := s.Opts.TestDeadline; d > 0 {
		deadline = time.Now().Add(d)
	}
	forEachAssignment(boxes, func(idx []int) {
		// A fresh map per assignment: a validation abandoned at the
		// deadline may still be reading its own.
		assign := make(map[*box]*irlib.Atomic, len(boxes))
		for i, bx := range boxes {
			assign[bx] = bx.classes[idx[i]][0]
		}
		out := s.validateGuarded(t, byInst, entryBox, assign, deadline)
		s.stats.Validations++
		if out.executed {
			s.stats.ExecRuns++
			s.stats.ExecTime += out.execTime
		}
		if out.panicked {
			s.stats.PanicsIsolated++
		}
		if out.timedOut {
			sum.timedOut++
			s.stats.TimedOut++
		}
		if out.ok {
			sum.anyWin = true
			for i, bx := range boxes {
				sum.winners[bx][idx[i]] = true
			}
		}
	})
	s.stats.ValidateTime += time.Since(start)
	return sum
}

// buildBoxes groups profile entries into enumeration boxes and attaches
// candidate pools, applying Optimizations I and II and neighbor-pair
// hint seeding (when useHints and a cell has no refinement of its own
// yet).
func (s *Synthesizer) buildBoxes(prof []*profEntry, useHints bool) ([]*box, error) {
	byKey := map[string]*box{}
	var order []string
	for _, e := range prof {
		if e.IsNew {
			continue
		}
		key := e.Kind.String() + "|" + e.Sigma
		if s.Opts.DisableEquivalence {
			// Without Optimization I every location is its own box.
			key = fmt.Sprintf("loc%d|%s", e.Loc, key)
		}
		bx, ok := byKey[key]
		if !ok {
			bx = &box{key: key, kind: e.Kind, sigma: e.Sigma}
			byKey[key] = bx
			order = append(order, key)
		}
		bx.entries = append(bx.entries, e)
	}
	sort.Strings(order)
	var out []*box
	for _, key := range order {
		bx := byKey[key]
		pool := s.candidates[bx.kind]
		refined := false
		if !s.Opts.DisableMemoization {
			if m, ok := s.mstar[bx.kind]; ok {
				if r, ok := m[bx.sigma]; ok {
					pool, refined = r, true // Optimization II
				}
			}
		}
		if !refined && useHints {
			if hp := s.hintPool(bx.kind, bx.sigma); hp != nil {
				pool = hp
				bx.seeded = true
				s.stats.NeighborSeeded++
			}
		}
		if len(pool) == 0 {
			return nil, failure.Wrapf(failure.Synthesis, "no candidates for instruction kind %s", bx.kind)
		}
		bx.classes = s.classify(bx, pool)
		out = append(out, bx)
	}
	return out, nil
}

// classify groups a candidate pool into semantic-equivalence classes on
// the box's first profiled instruction (the second half of
// Optimization I: getter aliases like GetOperand(0)/GetLHS return the
// same object, so candidates differing only in such getters have the same
// effect and need one validation).
func (s *Synthesizer) classify(bx *box, pool []*irlib.Atomic) [][]*irlib.Atomic {
	if s.Opts.DisableEquivalence || len(bx.entries) == 0 {
		out := make([][]*irlib.Atomic, len(pool))
		for i, a := range pool {
			out[i] = []*irlib.Atomic{a}
		}
		return out
	}
	inst := bx.entries[0].Inst
	reg := &objReg{ids: map[any]int{}}
	groups := map[string][]*irlib.Atomic{}
	var order []string
	for _, a := range pool {
		k := safeSemKey(a.Root, inst, reg, &s.stats.PanicsIsolated)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], a)
	}
	sort.Strings(order)
	out := make([][]*irlib.Atomic, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// objReg assigns stable ids to runtime objects for semantic keying.
type objReg struct {
	ids  map[any]int
	next int
}

func (r *objReg) id(v any) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case int:
		return fmt.Sprintf("i%d", x)
	case string:
		return "s" + x
	case ir.IPred:
		return "ip" + x.String()
	case ir.FPred:
		return "fp" + x.String()
	case ir.RMWOp:
		return "rmw" + string(x)
	case []int:
		parts := make([]string, len(x))
		for i, n := range x {
			parts[i] = fmt.Sprintf("%d", n)
		}
		return "ix[" + strings.Join(parts, ",") + "]"
	case []ir.Value:
		parts := make([]string, len(x))
		for i, v := range x {
			parts[i] = r.id(v)
		}
		return "vl[" + strings.Join(parts, ",") + "]"
	case []*ir.Block:
		parts := make([]string, len(x))
		for i, b := range x {
			parts[i] = r.id(b)
		}
		return "bl[" + strings.Join(parts, ",") + "]"
	case []irlib.PhiPair:
		parts := make([]string, len(x))
		for i, p := range x {
			parts[i] = r.id(p.V) + "@" + r.id(p.B)
		}
		return "pl[" + strings.Join(parts, ",") + "]"
	case []irlib.CasePair:
		parts := make([]string, len(x))
		for i, p := range x {
			parts[i] = r.id(p.C) + "@" + r.id(p.B)
		}
		return "cl[" + strings.Join(parts, ",") + "]"
	}
	if n, ok := r.ids[v]; ok {
		return fmt.Sprintf("o%d", n)
	}
	r.next++
	r.ids[v] = r.next
	return fmt.Sprintf("o%d", r.next)
}

// safeSemKey is semKey with panic isolation: a getter that panics when
// probed (a poisoned or buggy component) keys the candidate into its own
// structural class instead of taking down classification. The candidate
// still reaches validation, where the same panic rejects it. Each
// contained panic is counted through panics so Stats.PanicsIsolated
// reflects classification-time containment, not just validation.
func safeSemKey(t *irlib.Term, inst *ir.Instruction, reg *objReg, panics *int) (k string) {
	defer func() {
		if r := recover(); r != nil {
			*panics++
			k = "panic:" + t.Key()
		}
	}()
	return semKey(t, inst, reg)
}

// semKey renders the effect signature of a term on a concrete
// instruction: source-side getters and constants are evaluated to object
// identities; cross-side and builder nodes stay structural.
func semKey(t *irlib.Term, inst *ir.Instruction, reg *objReg) string {
	if t.IsInput() {
		return "inst"
	}
	switch t.API.Class {
	case irlib.ClassGetter, irlib.ClassConst:
		v, err := t.Eval(nil, inst)
		if err != nil {
			return "err:" + t.Key()
		}
		return reg.id(v)
	default:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = semKey(a, inst, reg)
		}
		return t.API.Name + "(" + strings.Join(parts, ",") + ")"
	}
}

// valOutcome is one validation result.
type valOutcome struct {
	ok       bool
	executed bool
	panicked bool // rejected by panic isolation
	timedOut bool // skipped or cut off by the test deadline
	execTime time.Duration
}

// forEachAssignment walks the odometer over the boxes' class indices.
func forEachAssignment(boxes []*box, visit func(idx []int)) {
	idx := make([]int, len(boxes))
	for {
		visit(idx)
		p := len(boxes) - 1
		for p >= 0 {
			idx[p]++
			if idx[p] < len(boxes[p].classes) {
				break
			}
			idx[p] = 0
			p--
		}
		if p < 0 {
			return
		}
	}
}

// validateGuarded runs one validation with the hardening wrappers. With
// no deadline it only adds panic isolation. With a deadline it first
// refuses work once the deadline has passed, then races the validation
// against the time remaining. When the timer fires, the stop channel is
// closed so the validation goroutine's interpreter run cancels
// cooperatively and the goroutine exits instead of burning its full step
// budget unobserved (its late result is discarded through the buffered
// channel). A candidate whose poisoned component hangs *outside* the
// interpreter still forfeits only this per-test translator.
func (s *Synthesizer) validateGuarded(t *TestCase, byInst map[*ir.Instruction]*profEntry,
	entryBox map[*ir.Instruction]*box, assign map[*box]*irlib.Atomic, deadline time.Time) valOutcome {

	if deadline.IsZero() {
		return s.validateIsolated(t, byInst, entryBox, assign, nil)
	}
	remain := time.Until(deadline)
	if remain <= 0 {
		return valOutcome{timedOut: true}
	}
	done := make(chan valOutcome, 1)
	stop := make(chan struct{})
	go func() {
		done <- s.validateIsolated(t, byInst, entryBox, assign, stop)
	}()
	timer := time.NewTimer(remain)
	defer timer.Stop()
	select {
	case out := <-done:
		return out
	case <-timer.C:
		close(stop)
		return valOutcome{timedOut: true}
	}
}

// validateIsolated converts a panic raised anywhere inside a candidate's
// translation — a poisoned API component, a malformed composition — into
// a plain rejection of that candidate, exactly as the paper's refinement
// excludes plausible-but-wrong per-test translators.
func (s *Synthesizer) validateIsolated(t *TestCase, byInst map[*ir.Instruction]*profEntry,
	entryBox map[*ir.Instruction]*box, assign map[*box]*irlib.Atomic, stop <-chan struct{}) (out valOutcome) {

	defer func() {
		if r := recover(); r != nil {
			out = valOutcome{panicked: true}
		}
	}()
	return s.validateAssignment(t, byInst, entryBox, assign, stop)
}

// validateAssignment performs one differential-testing validation
// (Fig. 6): translate the whole test with the assigned atomics, verify
// the result, execute it, and compare against the oracle. It touches no
// synthesizer state, so a validation abandoned at the test deadline can
// keep running beside the next one.
func (s *Synthesizer) validateAssignment(t *TestCase, byInst map[*ir.Instruction]*profEntry,
	entryBox map[*ir.Instruction]*box, assign map[*box]*irlib.Atomic, stop <-chan struct{}) valOutcome {

	dispatch := func(inst *ir.Instruction) (skeleton.InstFn, error) {
		e, ok := byInst[inst]
		if !ok {
			return nil, fmt.Errorf("synth: instruction not profiled")
		}
		if e.IsNew {
			return skeleton.NewInstHandler(e.Kind, s.TgtVer), nil
		}
		atomic := assign[entryBox[inst]]
		return func(c *irlib.Ctx, i *ir.Instruction) (ir.Value, error) {
			out, err := atomic.Apply(c, i)
			if err != nil {
				return nil, err
			}
			if !i.HasResult() {
				return nil, nil
			}
			return out, nil
		}, nil
	}

	tr := skeleton.New(t.Module, s.TgtVer, dispatch)
	tgtMod, err := tr.Run()
	if err != nil {
		// Translation failure: early rejection. A panic contained by the
		// skeleton's per-instruction recovery is reported distinctly so
		// Stats.PanicsIsolated reflects poisoned-component containment.
		var pe *skeleton.PanicError
		return valOutcome{panicked: errors.As(err, &pe)}
	}
	if err := ir.Verify(tgtMod); err != nil {
		return valOutcome{} // verification failure
	}
	// "Compilation": serialize with the target-version writer and reload
	// with the target-version reader, exactly what handing the file to a
	// target-version toolchain would do.
	text, err := irtext.NewWriter(s.TgtVer).WriteModule(tgtMod)
	if err != nil {
		return valOutcome{}
	}
	reloaded, err := irtext.Parse(text, s.TgtVer)
	if err != nil {
		return valOutcome{}
	}
	tgtMod = reloaded
	execStart := time.Now()
	res, err := interp.Run(tgtMod, interp.Options{Stop: stop})
	out := valOutcome{executed: true, execTime: time.Since(execStart)}
	if err != nil || res.Crashed() {
		return out
	}
	out.ok = res.Ret == t.Oracle
	return out
}

// refine implements Alg. 4 for one (kind, σ&) cell.
func (s *Synthesizer) refine(kind ir.Opcode, sigma string, won []*irlib.Atomic) {
	m, ok := s.mstar[kind]
	if !ok {
		m = map[string][]*irlib.Atomic{}
		s.mstar[kind] = m
	}
	prev, seen := m[sigma]
	if !seen {
		m[sigma] = dedupe(won)
		return
	}
	inWon := map[*irlib.Atomic]bool{}
	for _, a := range won {
		inWon[a] = true
	}
	var inter []*irlib.Atomic
	for _, a := range prev {
		if inWon[a] {
			inter = append(inter, a)
		}
	}
	m[sigma] = inter
}

func dedupe(as []*irlib.Atomic) []*irlib.Atomic {
	seen := map[*irlib.Atomic]bool{}
	var out []*irlib.Atomic
	for _, a := range as {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
