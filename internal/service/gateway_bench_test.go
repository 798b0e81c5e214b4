package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/corpus"
	"repro/internal/irtext"
	"repro/internal/tenant"
)

// The gateway must be cheap enough to put in front of everything: auth
// (constant-time key scan), quota bookkeeping, the deficit-round-robin
// queue, and coalescing's per-request sha256 of the input (both switched
// on by Config.Tenants, exactly as `sirod -tenants` deploys them)
// together are held within a few percent of the anonymous
// direct-handler baseline on the cache-hit translate path.
// TestGatewayBenchReport (run by `make bench-gateway`) measures both
// and writes BENCH_gateway.json for CI to archive.

// benchTranslateHTTP measures the handler's /v1/translate round trip
// (in-process, no network) against a warmed service.
func benchTranslateHTTP(b *testing.B, h http.Handler, apiKey string) {
	p := benchPair()
	text, err := irtext.NewWriter(p.Source).WriteModule(corpus.Tests(p.Source)[0].Module)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(TranslateRequest{Source: "12.0", Target: "3.6", IR: text})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/translate", bytes.NewReader(body))
		if apiKey != "" {
			req.Header.Set("Authorization", "Bearer "+apiKey)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// newBenchService returns a warmed service for the bench handler.
func newBenchService(b *testing.B, cfg Config) *Service {
	cfg.Workers = 4
	svc := New(cfg)
	b.Cleanup(svc.Close)
	p := benchPair()
	if err := svc.Warm(context.Background(), p.Source, p.Target); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkTranslateHTTPAnonymous is the baseline: the bare handler,
// no gateway, channel-FIFO queue.
func BenchmarkTranslateHTTPAnonymous(b *testing.B) {
	svc := newBenchService(b, Config{})
	benchTranslateHTTP(b, NewHandler(svc, HandlerOpts{}), "")
}

// BenchmarkTranslateHTTPGateway is the full multi-tenant front door:
// API-key auth, per-tenant accounting, the fair queue, and coalescing.
// The bench tenant has no rate or inflight cap so the measurement is the
// machinery, not a throttle.
func BenchmarkTranslateHTTPGateway(b *testing.B) {
	reg := tenant.NewRegistry([]tenant.Tenant{
		{ID: "bench", Key: "bench-key"},
		{ID: "other-a", Key: "other-key-a"},
		{ID: "other-b", Key: "other-key-b"},
	}, tenant.Defaults{})
	svc := newBenchService(b, Config{Tenants: reg})
	gw := tenant.NewGateway(tenant.GatewayConfig{Registry: reg, Metrics: svc.Metrics()})
	benchTranslateHTTP(b, gw.Wrap(NewHandler(svc, HandlerOpts{GatewayStats: gw.Stats})), "bench-key")
}

// TestGatewayBenchReport asserts the gated path stays within 5% of the
// anonymous baseline (best of 3 runs each) and — when SIRO_BENCH_JSON
// names a file — writes the measurements as JSON.
func TestGatewayBenchReport(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race-detector instrumentation skews the overhead ratio; gated by make bench-gateway")
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
	gatedNs := best(BenchmarkTranslateHTTPGateway)
	baseNs := best(BenchmarkTranslateHTTPAnonymous)
	if gatedNs <= 0 || baseNs <= 0 {
		t.Fatalf("degenerate measurements: gateway %d ns/op, baseline %d ns/op", gatedNs, baseNs)
	}
	overhead := float64(gatedNs)/float64(baseNs) - 1
	t.Logf("translate HTTP gateway %d ns/op, anonymous %d ns/op, overhead %+.2f%%",
		gatedNs, baseNs, overhead*100)
	const maxOverhead = 0.05
	if overhead > maxOverhead {
		t.Fatalf("gateway overhead %.2f%% exceeds %.0f%% budget", overhead*100, maxOverhead*100)
	}
	if out == "" {
		return
	}
	report := struct {
		Benchmark   string  `json:"benchmark"`
		Pair        string  `json:"pair"`
		GatewayNsOp int64   `json:"gateway_ns_per_op"`
		BaseNsOp    int64   `json:"anonymous_ns_per_op"`
		Overhead    float64 `json:"overhead"`
		Threshold   float64 `json:"threshold"`
		Runs        int     `json:"runs_each"`
	}{
		Benchmark:   "cache-hit HTTP translate: gateway (auth + fair queue + coalescing) vs anonymous",
		Pair:        benchPair().String(),
		GatewayNsOp: gatedNs,
		BaseNsOp:    baseNs,
		Overhead:    overhead,
		Threshold:   maxOverhead,
		Runs:        3,
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
