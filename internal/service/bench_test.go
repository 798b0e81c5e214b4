package service

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/version"
)

// The paper's economics: synthesis is paid once per version pair, so a
// deployed service must serve repeat pairs at cache speed. These two
// benchmarks quantify the gap; TestServiceBenchReport (run by `make
// bench-service`) asserts it is at least an order of magnitude and
// writes BENCH_service.json for CI to archive.

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

// TestServiceBenchReport runs both benchmarks in-process, asserts the
// cache hit is at least 10x faster than cold synthesis, and — when
// SIRO_BENCH_JSON names a file — writes the measurements as JSON.
func TestServiceBenchReport(t *testing.T) {
	out := os.Getenv("SIRO_BENCH_JSON")
	if out == "" && testing.Short() {
		t.Skip("short mode and no SIRO_BENCH_JSON set")
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
	if out == "" {
		return
	}
	report := struct {
		Benchmark       string  `json:"benchmark"`
		Pair            string  `json:"pair"`
		CacheHitNsPerOp int64   `json:"cache_hit_ns_per_op"`
		CacheHitIters   int     `json:"cache_hit_iters"`
		ColdNsPerOp     int64   `json:"cold_synthesis_ns_per_op"`
		ColdIters       int     `json:"cold_synthesis_iters"`
		Speedup         float64 `json:"speedup"`
		Threshold       float64 `json:"threshold"`
	}{
		Benchmark:       "service cache hit vs cold synthesis",
		Pair:            benchPair().String(),
		CacheHitNsPerOp: hitNs,
		CacheHitIters:   hit.N,
		ColdNsPerOp:     coldNs,
		ColdIters:       cold.N,
		Speedup:         speedup,
		Threshold:       10,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
