package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/translator"
	"repro/internal/version"
)

// Concurrent stress: many goroutines hammer one service across several
// version pairs. Under -race this exercises the cache singleflight, the
// LRU, the worker pool, and the stats counters together. Each uncached
// pair must be synthesized exactly once no matter how many requests
// race for it.
func TestServiceStressConcurrent(t *testing.T) {
	pairs := []version.Pair{
		{Source: version.V12_0, Target: version.V3_6},
		{Source: version.V13_0, Target: version.V3_6},
		{Source: version.V14_0, Target: version.V3_6},
		{Source: version.V12_0, Target: version.V3_7},
		{Source: version.V17_0, Target: version.V3_6},
	}
	svc := New(Config{Workers: 8, CacheDir: t.TempDir()})
	defer svc.Close()

	const goroutinesPerPair = 6
	const itersPerGoroutine = 4
	var wg sync.WaitGroup
	var failures int32
	for _, p := range pairs {
		tests := corpus.Tests(p.Source)
		for g := 0; g < goroutinesPerPair; g++ {
			wg.Add(1)
			go func(p version.Pair, g int) {
				defer wg.Done()
				for i := 0; i < itersPerGoroutine; i++ {
					tc := tests[(g*itersPerGoroutine+i)%len(tests)]
					out, err := svc.Translate(context.Background(), p.Source, p.Target, tc.Module)
					if err != nil {
						atomic.AddInt32(&failures, 1)
						t.Errorf("%s %s: %v", p, tc.Name, err)
						return
					}
					if out.Ver != p.Target {
						atomic.AddInt32(&failures, 1)
						t.Errorf("%s %s: output version %v", p, tc.Name, out.Ver)
						return
					}
				}
			}(p, g)
		}
	}
	wg.Wait()
	if atomic.LoadInt32(&failures) != 0 {
		t.FailNow()
	}

	st := svc.Stats()
	want := int64(len(pairs) * goroutinesPerPair * itersPerGoroutine)
	if st.Requests != want || st.Completed != want || st.Failed != 0 {
		t.Fatalf("stats = %d requests / %d completed / %d failed, want %d/%d/0",
			st.Requests, st.Completed, st.Failed, want, want)
	}
	if st.Cache.Synthesized != int64(len(pairs)) {
		t.Fatalf("synthesized %d translators for %d pairs", st.Cache.Synthesized, len(pairs))
	}
}

// Equivalence over the corpus: a translation served from the cache (and
// rendered to text) must be byte-identical to what the direct,
// uncached translator produces — caching must be invisible.
func TestServiceCacheHitEquivalence(t *testing.T) {
	pair := version.Pair{Source: version.V12_0, Target: version.V3_6}
	res, err := DefaultSynthFn(pair, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct := translator.FromResult(res)
	w := irtext.NewWriter(pair.Target)

	svc := New(Config{Workers: 2, CacheDir: t.TempDir()})
	defer svc.Close()
	if err := svc.Warm(context.Background(), pair.Source, pair.Target); err != nil {
		t.Fatal(err)
	}

	for _, tc := range corpus.Tests(pair.Source) {
		dm, err := direct.Translate(tc.Module)
		if err != nil {
			t.Fatalf("%s: direct: %v", tc.Name, err)
		}
		want, err := w.WriteModule(dm)
		if err != nil {
			t.Fatal(err)
		}
		sm, route, err := svc.TranslateRouted(context.Background(), pair.Source, pair.Target, tc.Module)
		if err != nil {
			t.Fatalf("%s: service: %v", tc.Name, err)
		}
		if len(route) != 2 {
			t.Fatalf("%s: warmed pair took route %v", tc.Name, route)
		}
		got, err := w.WriteModule(sm)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cached translation differs from direct translation:\n--- direct ---\n%s\n--- cached ---\n%s", tc.Name, want, got)
		}
	}
	if hits := svc.Stats().Cache.MemoryHits; hits == 0 {
		t.Fatal("no memory hits recorded; equivalence test did not exercise the cache")
	}
}

// A slow synthesis must surface a Budget failure when the per-job
// deadline expires, not hang or return a partial result.
func TestServiceJobTimeout(t *testing.T) {
	slow := func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		time.Sleep(80 * time.Millisecond)
		return DefaultSynthFn(pair, opts)
	}
	svc := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond, MaxHops: 1, SynthFn: slow})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	_, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	if err == nil {
		t.Fatal("want budget failure")
	}
	if !errors.Is(err, failure.Budget) {
		t.Fatalf("error class: %v", err)
	}
	if svc.Stats().FailureClasses["budget exhausted"] == 0 {
		t.Fatalf("failure classes not recorded: %+v", svc.Stats().FailureClasses)
	}
}

// A caller whose own context expires gets Budget, and the service keeps
// serving afterwards.
func TestServiceCallerDeadline(t *testing.T) {
	slow := func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		time.Sleep(60 * time.Millisecond)
		return DefaultSynthFn(pair, opts)
	}
	svc := New(Config{Workers: 1, MaxHops: 1, SynthFn: slow})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := svc.Translate(ctx, version.V12_0, version.V3_6, m); !errors.Is(err, failure.Budget) {
		t.Fatalf("expired caller got %v, want budget", err)
	}
	// The pool is not poisoned: a patient caller succeeds.
	if _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); err != nil {
		t.Fatalf("service unusable after a deadline miss: %v", err)
	}
}

// A panicking synthesis seam is contained to the job, classified, and
// does not kill the worker. The panic opens the pair's circuit
// breaker, so the next request fails fast with the same class; after
// the cooldown a probe re-synthesizes and the breaker heals.
func TestServiceSynthPanic(t *testing.T) {
	var calls int32
	boom := func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			panic("chaos: synthesizer crashed")
		}
		return DefaultSynthFn(pair, opts)
	}
	svc := New(Config{Workers: 1, MaxHops: 1, SynthFn: boom, BreakerCooldown: 50 * time.Millisecond})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	_, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if !errors.Is(err, failure.Validation) {
		t.Fatalf("panic class: %v", err)
	}
	// The worker survived (requests still get answers), and once the
	// breaker admits a probe the pair synthesizes normally.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
		if err == nil {
			break
		}
		if !errors.Is(err, failure.Validation) { // fail-fast keeps the opening class
			t.Fatalf("unexpected class while breaker open: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never healed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("SynthFn calls = %d, want 2 (panic + healed probe)", got)
	}
}

func TestServiceAdmission(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	if _, err := svc.Translate(context.Background(), version.V{Major: 99}, version.V3_6, m); !errors.Is(err, failure.Unsupported) {
		t.Fatalf("bogus source admitted: %v", err)
	}
	if _, err := svc.Translate(context.Background(), version.V12_0, version.V{Major: 99}, m); !errors.Is(err, failure.Unsupported) {
		t.Fatalf("bogus target admitted: %v", err)
	}
	// Module/request version mismatch.
	if _, err := svc.Translate(context.Background(), version.V13_0, version.V3_6, m); !errors.Is(err, failure.Unsupported) {
		t.Fatalf("version mismatch admitted: %v", err)
	}
	// Identity translation short-circuits without synthesis.
	out, route, err := svc.TranslateRouted(context.Background(), version.V12_0, version.V12_0, m)
	if err != nil || out != m || len(route) != 2 {
		t.Fatalf("identity translation: out %p err %v route %v", out, err, route)
	}
	if svc.Stats().Cache.Synthesized != 0 {
		t.Fatal("identity translation triggered synthesis")
	}
}

func TestServiceClosed(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Close()
	svc.Close() // idempotent
	m := corpus.Tests(version.V12_0)[0].Module
	if _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); !errors.Is(err, failure.Budget) {
		t.Fatalf("closed service accepted work: %v", err)
	}
}

// The HTTP surface: translate round-trip with source auto-detection,
// and the failure-class → status mapping.
func TestHandlerTranslate(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	tc := corpus.Tests(version.V12_0)[0]
	text, err := irtext.NewWriter(version.V12_0).WriteModule(tc.Module)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(TranslateRequest{Source: "auto", Target: "3.6", IR: text})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/translate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tr TranslateResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Target != "3.6" || tr.IR == "" || len(tr.Route) < 2 {
		t.Fatalf("response: %+v", tr)
	}
	// Auto-detection must land on a version that accepts the input.
	if tr.Source == "" {
		t.Fatalf("no detected source in %+v", tr)
	}
	if _, err := irtext.Parse(tr.IR, version.V3_6); err != nil {
		t.Fatalf("response IR does not parse at 3.6: %v", err)
	}
}

func TestHandlerErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	cases := []struct {
		name   string
		body   string
		status int
		class  string
	}{
		{"malformed json", `{"source":`, http.StatusBadRequest, "parse error"},
		{"bad target", `{"source":"12.0","target":"bogus","ir":""}`, http.StatusBadRequest, "parse error"},
		{"garbage ir", `{"target":"3.6","ir":"this is not IR"}`, http.StatusBadRequest, "parse error"},
		{"unsupported pair version", `{"source":"6.1","target":"3.6","ir":""}`, http.StatusUnprocessableEntity, "unsupported construct"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/translate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Error == "" || e.ExitCode == 0 {
				t.Fatalf("error body: %+v", e)
			}
		})
	}

	// GET on the translate endpoint is rejected.
	resp, err := http.Get(srv.URL + "/v1/translate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET translate: status %d", resp.StatusCode)
	}
}

func TestHandlerStatsVersionsHealth(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/versions")
	if err != nil {
		t.Fatal(err)
	}
	var vs struct {
		Versions []string `json:"versions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vs)
	resp.Body.Close()
	if err != nil || len(vs.Versions) != len(version.All) {
		t.Fatalf("versions: %v %v", vs, err)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Uptime <= 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// The warm plan covers the full ordered matrix, nearest pairs first —
// the order `sirod -auto-warm` and `siro -warm-matrix` rely on to buy
// multi-hop route coverage earliest.
func TestMatrixPairsOrderedByDistance(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	pairs := svc.MatrixPairs()
	n := len(version.All)
	if len(pairs) != n*(n-1) {
		t.Fatalf("matrix has %d pairs, want %d", len(pairs), n*(n-1))
	}
	seen := map[version.Pair]bool{}
	for i, p := range pairs {
		if p.Source == p.Target {
			t.Fatalf("identity pair %s in matrix", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %s in matrix", p)
		}
		seen[p] = true
		if i > 0 {
			prev := pairs[i-1]
			if version.Distance(p.Source, p.Target) < version.Distance(prev.Source, prev.Target) {
				t.Fatalf("matrix not ordered by distance: %s (d=%d) after %s (d=%d)",
					p, version.Distance(p.Source, p.Target), prev, version.Distance(prev.Source, prev.Target))
			}
		}
	}
}

// Cancelling WarmMatrix abandons the sweep promptly with a
// Budget-classed error; pairs already warmed stay warm, and per-pair
// callbacks stop arriving after the cancellation is observed.
func TestWarmMatrixCancellation(t *testing.T) {
	var synths atomic.Int64
	svc := New(Config{
		Workers: 2,
		SynthFn: func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
			synths.Add(1)
			return DefaultSynthFn(pair, opts)
		},
	})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	warmed, err := svc.WarmMatrix(ctx, func(p version.Pair, perr error) {
		calls++
		if perr != nil {
			t.Errorf("warm %s: %v", p, perr)
		}
		cancel() // cancel inside the first callback
	})
	if err == nil {
		t.Fatal("cancelled WarmMatrix returned nil error")
	}
	if failure.ClassOf(err) != failure.Budget {
		t.Fatalf("cancellation class = %v, want Budget", failure.ClassOf(err))
	}
	if warmed != 1 || calls != 1 {
		t.Fatalf("after first-callback cancel: warmed %d, callbacks %d; want 1 and 1", warmed, calls)
	}
	if n := synths.Load(); n != 1 {
		t.Fatalf("synthesis ran %d times before cancellation, want 1", n)
	}

	// The pair warmed before cancellation survives: translating it now
	// is a cache hit, not a new synthesis.
	first := svc.MatrixPairs()[0]
	if _, err := svc.Translate(context.Background(), first.Source, first.Target, corpus.Tests(first.Source)[0].Module); err != nil {
		t.Fatal(err)
	}
	if n := synths.Load(); n != 1 {
		t.Fatalf("warmed pair re-synthesized: %d syntheses", n)
	}
}
