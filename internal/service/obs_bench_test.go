package service

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// The observability layer must be cheap enough to leave on: the
// instrumented cache-hit path (counters, histograms, stage timers) is
// held within a few percent of the uninstrumented baseline.
// TestObsBenchReport (run by `make bench-obs`) measures both and writes
// BENCH_obs.json for CI to archive.

// benchCacheHit measures a warmed service's Translate round trip under
// the given config.
func benchCacheHit(b *testing.B, cfg Config) {
	p := benchPair()
	cfg.Workers = 4
	svc := New(cfg)
	defer svc.Close()
	if err := svc.Warm(context.Background(), p.Source, p.Target); err != nil {
		b.Fatal(err)
	}
	m := benchModule(b, p.Source)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Translate(context.Background(), p.Source, p.Target, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHitInstrumented is the default configuration: metrics
// registry live, every counter and stage histogram firing per request.
func BenchmarkCacheHitInstrumented(b *testing.B) {
	benchCacheHit(b, Config{})
}

// BenchmarkCacheHitUninstrumented is the pre-observability baseline:
// DisableMetrics strips the registry, so histograms, gauges and stage
// timers are off and only the unregistered counters behind Stats count.
func BenchmarkCacheHitUninstrumented(b *testing.B) {
	benchCacheHit(b, Config{DisableMetrics: true})
}

// TestObsBenchReport asserts the instrumented cache-hit path stays
// within 5% of the uninstrumented baseline (best of 3 runs each, to
// keep scheduler noise out of the verdict) and — when SIRO_BENCH_JSON
// names a file — writes the measurements as JSON.
func TestObsBenchReport(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race-detector instrumentation skews the overhead ratio; gated by make bench-obs")
	}
	out := os.Getenv("SIRO_BENCH_JSON")
	if out == "" {
		// Timing thresholds are only trustworthy on a quiet machine: the
		// dedicated `make bench-*` target (which sets SIRO_BENCH_JSON)
		// runs this gate alone; inside the full parallel test sweep the
		// measurement competes for CPU and flakes.
		t.Skip("no SIRO_BENCH_JSON set; threshold gated by the bench make target")
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
	instrNs := best(BenchmarkCacheHitInstrumented)
	baseNs := best(BenchmarkCacheHitUninstrumented)
	if instrNs <= 0 || baseNs <= 0 {
		t.Fatalf("degenerate measurements: instrumented %d ns/op, baseline %d ns/op", instrNs, baseNs)
	}
	overhead := float64(instrNs)/float64(baseNs) - 1
	t.Logf("cache hit instrumented %d ns/op, uninstrumented %d ns/op, overhead %+.2f%%",
		instrNs, baseNs, overhead*100)
	const maxOverhead = 0.05
	if overhead > maxOverhead {
		t.Fatalf("instrumentation overhead %.2f%% exceeds %.0f%% budget", overhead*100, maxOverhead*100)
	}
	if out == "" {
		return
	}
	report := struct {
		Benchmark          string  `json:"benchmark"`
		Pair               string  `json:"pair"`
		InstrumentedNsOp   int64   `json:"instrumented_ns_per_op"`
		UninstrumentedNsOp int64   `json:"uninstrumented_ns_per_op"`
		Overhead           float64 `json:"overhead"`
		Threshold          float64 `json:"threshold"`
		Runs               int     `json:"runs_each"`
	}{
		Benchmark:          "cache-hit translate: instrumented vs uninstrumented",
		Pair:               benchPair().String(),
		InstrumentedNsOp:   instrNs,
		UninstrumentedNsOp: baseNs,
		Overhead:           overhead,
		Threshold:          maxOverhead,
		Runs:               3,
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
