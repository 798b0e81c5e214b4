package synth

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/irlib"
	"repro/internal/version"
)

func itoa(n int) string { return strconv.Itoa(n) }

func perfTests(t *testing.T, v version.V) []*TestCase {
	t.Helper()
	return []*TestCase{
		addTest(t, v),
		subTest(t, v),
		tc(t, "branching", `
define i32 @main() {
entry:
  %cond = icmp eq i32 10, 20
  br i1 %cond, label %then, label %else
then:
  ret i32 42
else:
  ret i32 41
}
`, v, 41),
	}
}

// Stats.Phases documents disjoint wall-clock intervals: they must sum
// to Total, and Total must not exceed the run's elapsed wall time.
func TestPhaseAccountingInvariant(t *testing.T) {
	s := New(version.V12_0, version.V3_6, Options{})
	start := time.Now()
	res, err := s.Run(perfTests(t, version.V12_0))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range res.Stats.Phases() {
		if d < 0 {
			t.Fatalf("negative phase duration: %v", res.Stats.Phases())
		}
		sum += d
	}
	if sum != res.Stats.Total() {
		t.Fatalf("Phases sum %v != Total %v", sum, res.Stats.Total())
	}
	if total := res.Stats.Total(); total > elapsed {
		t.Fatalf("Total %v exceeds elapsed wall time %v — a phase is double-counting worker time", total, elapsed)
	}
}

// A validation cut off by the test deadline must not leave its
// goroutine burning the interpreter's step budget: the stop signal
// reclaims it almost immediately. The loop below runs ~900k interpreter
// steps (~tens of milliseconds), so an abandoned goroutine would stay
// alive long after the post-Run window asserted here.
func TestDeadlineReclaimsValidationGoroutines(t *testing.T) {
	if raceDetectorOn {
		t.Skip("goroutine-reclaim window is timing-sensitive; skewed by race instrumentation")
	}
	// The loop returns its trip count, so the oracle depends on the loop
	// actually running: a broken branch candidate that short-circuits the
	// loop returns the wrong value and cannot win the differential test
	// in microseconds. Only a full (slow) execution can win — which is
	// exactly what the deadline must cut off.
	loop := func(name string, iters int) *TestCase {
		return tc(t, name, `
define i32 @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %done = icmp eq i32 %next, `+itoa(iters)+`
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %next
}
`, version.V12_0, int64(iters))
	}
	// Refine M* on simple tests and a fast loop of the same shape first,
	// so the slow test's enumeration runs over small refined pools
	// (Optimization II) instead of a combinatorial cold product.
	s := New(version.V12_0, version.V3_6, Options{})
	for _, warm := range append(perfTests(t, version.V12_0), loop("fastloop", 3)) {
		if err := s.AddTest(warm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Complete(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s.Opts.TestDeadline = 10 * time.Millisecond
	err := s.AddTest(loop("slowloop", 300000))
	if err == nil {
		t.Fatal("expected the deadline to fail the slow test")
	}
	if s.stats.TimedOut == 0 {
		t.Fatal("no validation timed out; the test exercised nothing")
	}
	// With cooperative cancellation the abandoned goroutines exit within
	// 64 interpreter steps of the deadline; without it they would still
	// be interpreting for tens of milliseconds here.
	deadline := time.Now().Add(40 * time.Millisecond)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive 40ms after Run returned (baseline %d): timed-out validations leak",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// safeSemKey must count the panics it contains: a poisoned getter that
// panics when probed during classification is invisible in the refined
// sets (it gets its own class and loses validation), so the counter is
// the only evidence the containment fired.
func TestSafeSemKeyCountsPanics(t *testing.T) {
	boom := &irlib.Term{API: &irlib.API{
		Name:  "GetBoom",
		Class: irlib.ClassGetter,
		Impl:  func(c *irlib.Ctx, args []any) (any, error) { panic("chaos: GetBoom panics") },
	}}
	inst := addTest(t, version.V12_0).Module.Func("main").Entry().Insts[0]
	panics := 0
	k := safeSemKey(boom, inst, &objReg{ids: map[any]int{}}, &panics)
	if panics != 1 {
		t.Fatalf("PanicsIsolated delta = %d, want 1", panics)
	}
	if k != "panic:"+boom.Key() {
		t.Fatalf("panic key = %q", k)
	}
	// A healthy term must not touch the counter.
	if _ = safeSemKey(&irlib.Term{}, inst, &objReg{ids: map[any]int{}}, &panics); panics != 1 {
		t.Fatalf("healthy term bumped the panic counter to %d", panics)
	}
}
