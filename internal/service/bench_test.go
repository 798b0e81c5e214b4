package service

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/version"
)

// The paper's economics: synthesis is paid once per version pair, so a
// deployed service must serve repeat pairs at cache speed. These two
// benchmarks quantify the gap; TestCacheHitTenfoldFasterThanSynthesis
// asserts it is at least an order of magnitude.

func benchPair() version.Pair {
	return version.Pair{Source: version.V12_0, Target: version.V3_6}
}

// BenchmarkServiceCacheHit measures a warmed service: every Translate
// is an in-memory LRU hit plus the worker-pool round trip.
func BenchmarkServiceCacheHit(b *testing.B) {
	p := benchPair()
	svc := New(Config{Workers: 4})
	defer svc.Close()
	if err := svc.Warm(context.Background(), p.Source, p.Target); err != nil {
		b.Fatal(err)
	}
	m := benchModule(b, p.Source)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Translate(context.Background(), p.Source, p.Target, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceColdSynthesis measures the cache-miss path: each
// iteration synthesizes the translator from scratch, as a first
// request for an unseen pair must.
func BenchmarkServiceColdSynthesis(b *testing.B) {
	p := benchPair()
	m := benchModule(b, p.Source)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := NewCache("", 4, synth.Options{})
		tr, _, err := cache.Get(context.Background(), p, func() (*synth.Result, error) { return DefaultSynthFn(p, synth.Options{}) })
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Translate(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchModule(tb testing.TB, src version.V) *ir.Module {
	tb.Helper()
	tests := corpus.Tests(src)
	if len(tests) == 0 {
		tb.Fatal("empty corpus")
	}
	return tests[0].Module
}

// TestCacheHitTenfoldFasterThanSynthesis runs both benchmarks
// in-process and asserts the cache hit is at least 10x faster than
// cold synthesis.
func TestCacheHitTenfoldFasterThanSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two benchmarks; skipped in short mode")
	}
	hit := testing.Benchmark(BenchmarkServiceCacheHit)
	cold := testing.Benchmark(BenchmarkServiceColdSynthesis)
	hitNs, coldNs := hit.NsPerOp(), cold.NsPerOp()
	if hitNs <= 0 || coldNs <= 0 {
		t.Fatalf("degenerate measurements: hit %d ns/op, cold %d ns/op", hitNs, coldNs)
	}
	speedup := float64(coldNs) / float64(hitNs)
	t.Logf("cache hit %d ns/op (%d iters), cold synthesis %d ns/op (%d iters), speedup %.1fx",
		hitNs, hit.N, coldNs, cold.N, speedup)
	if speedup < 10 {
		t.Fatalf("cache hit only %.1fx faster than cold synthesis, want >= 10x", speedup)
	}
}
