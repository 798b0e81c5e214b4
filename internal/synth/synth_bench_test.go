package synth

import (
	"testing"

	"repro/internal/version"
)

// Cold-synthesis latency is the number the cross-pair memoization
// exists to move. Two configurations matter:
//
//   - cold: no shared state, one synthesis from scratch.
//   - warm-neighbor: a completed adjacent pair's GenCache + Hints are
//     injected, the warm-matrix / service-router path.
//
// TestWarmNeighborSynthFaster measures both (best of 3) and gates
// warm-neighbor >= 1.2x cold.

func benchSynthTests(tb testing.TB, v version.V) []*TestCase {
	tb.Helper()
	return []*TestCase{
		tc(tb, "add", `
define i32 @main() {
entry:
  %x = add i32 2, 3
  ret i32 %x
}
`, v, 5),
		tc(tb, "sub", `
define i32 @main() {
entry:
  %x = sub i32 50, 8
  ret i32 %x
}
`, v, 42),
		tc(tb, "branching", `
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

func benchColdSynth(b *testing.B, src version.V, opts func() Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := New(src, version.V3_6, opts())
		if _, err := s.Run(benchSynthTests(b, src)); err != nil {
			b.Fatal(err)
		}
	}
}

// neighborDone synthesizes 12.0->3.6 over a fresh GenCache and returns
// that cache with the run's hints: the state a 13.0->3.6 synthesis
// inherits once its neighbor is done.
func neighborDone(tb testing.TB) (*GenCache, *Hints) {
	tb.Helper()
	gc := NewGenCache()
	doneOpts := Options{GenCache: gc}
	res, err := New(version.V12_0, version.V3_6, doneOpts).Run(benchSynthTests(tb, version.V12_0))
	if err != nil {
		tb.Fatal(err)
	}
	return gc, res.Hints(doneOpts)
}

// BenchmarkColdSynthSerial synthesizes 12.0->3.6 with no shared state.
func BenchmarkColdSynthSerial(b *testing.B) {
	benchColdSynth(b, version.V12_0, func() Options { return Options{} })
}

// BenchmarkWarmNeighborSynth synthesizes 13.0->3.6 with the GenCache
// and Hints of a completed 12.0->3.6 run injected — the state the
// service router and `siro -warm-matrix` hand each pair after its
// neighbor finishes.
func BenchmarkWarmNeighborSynth(b *testing.B) {
	gc, hints := neighborDone(b)
	b.ResetTimer()
	benchColdSynth(b, version.V13_0, func() Options { return Options{GenCache: gc, Hints: hints} })
}

// benchWarmBaseline is the warm benchmark's control: the same
// 13.0->3.6 synthesis with nothing injected.
func benchWarmBaseline(b *testing.B) {
	benchColdSynth(b, version.V13_0, func() Options { return Options{} })
}

// A completed neighbor must make the next pair's synthesis at least
// 1.2x faster, and for the reason the memoization gives: hint-seeded
// boxes and fewer validations than the cold run.
func TestWarmNeighborSynthFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: six benchmark runs")
	}
	if raceDetectorOn {
		t.Skip("race-detector instrumentation skews synthesis timings")
	}
	cold, err := New(version.V13_0, version.V3_6, Options{}).Run(benchSynthTests(t, version.V13_0))
	if err != nil {
		t.Fatal(err)
	}
	gc, hints := neighborDone(t)
	warm, err := New(version.V13_0, version.V3_6, Options{GenCache: gc, Hints: hints}).Run(benchSynthTests(t, version.V13_0))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm-neighbor: %d boxes seeded, %d validations; cold: %d validations",
		warm.Stats.NeighborSeeded, warm.Stats.Validations, cold.Stats.Validations)
	if warm.Stats.NeighborSeeded == 0 {
		t.Fatal("no box was hint-seeded; the neighbor's hints did not transfer")
	}
	if warm.Stats.Validations >= cold.Stats.Validations {
		t.Fatalf("warm-neighbor run validated %d translators, cold run %d", warm.Stats.Validations, cold.Stats.Validations)
	}

	best := func(bench func(*testing.B)) int64 {
		bestNs := int64(0)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(bench)
			if ns := r.NsPerOp(); ns > 0 && (bestNs == 0 || ns < bestNs) {
				bestNs = ns
			}
		}
		return bestNs
	}
	warmNs := best(BenchmarkWarmNeighborSynth)
	coldNs := best(benchWarmBaseline)
	if warmNs <= 0 || coldNs <= 0 {
		t.Fatalf("degenerate measurements: warm %d, cold %d ns/op", warmNs, coldNs)
	}
	speedup := float64(coldNs) / float64(warmNs)
	t.Logf("warm-neighbor %d ns/op vs cold %d ns/op (%.2fx)", warmNs, coldNs, speedup)
	const minSpeedup = 1.2
	if speedup < minSpeedup {
		t.Fatalf("warm-neighbor speedup %.2fx below the %.1fx gate — memoization stopped engaging", speedup, minSpeedup)
	}
}
