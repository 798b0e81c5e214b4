package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/tenant"
	"repro/internal/version"
)

// The multi-tenant contention soak (`make tenant-smoke`): the gateway,
// fair queue, and coalescer under sustained mixed-priority load. Three
// phases, one summary:
//
//  1. Fairness: two equal-weight tenants offer 10:1 load against one
//     worker; each tenant's completed-request share must land within
//     20% of its weight share (50/50) — the deficit-round-robin
//     guarantee that a batch flood cannot starve interactive traffic.
//  2. Coalescing: the identical (pair, input) requested concurrently
//     by two tenants triggers exactly one synthesis (proven by the
//     synth-call counter) while both tenants' per-tenant accounting
//     records the request.
//  3. Contention: a 3-tenant fleet — one flooder, two interactive —
//     through the full HTTP gateway stack; zero unclassified
//     responses, and neither interactive tenant starves (all its
//     requests complete, bounded latency).
//
// Knobs: SIRO_TENANT_SECONDS bounds phases 1 and 3 (default 2),
// SIRO_TENANT_JSON names the machine-readable summary CI archives.
func TestTenantSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tenant soak skipped in -short mode")
	}
	seconds := 2.0
	if s := os.Getenv("SIRO_TENANT_SECONDS"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("SIRO_TENANT_SECONDS=%q", s)
		}
		seconds = v
	}
	dur := time.Duration(seconds * float64(time.Second))

	var sum tenantSoakSummary
	sum.Seconds = seconds
	t.Run("fairness", func(t *testing.T) { soakFairness(t, dur, &sum) })
	t.Run("coalesce", func(t *testing.T) { soakCoalesce(t, &sum) })
	t.Run("contention", func(t *testing.T) { soakContention(t, dur, &sum) })

	if out := os.Getenv("SIRO_TENANT_JSON"); out != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}

type tenantSoakSummary struct {
	Seconds  float64 `json:"seconds"`
	Fairness struct {
		HeavyStreams   int     `json:"heavy_streams"`
		LightStreams   int     `json:"light_streams"`
		HeavyCompleted int64   `json:"heavy_completed"`
		LightCompleted int64   `json:"light_completed"`
		HeavyShare     float64 `json:"heavy_share"`
		LightShare     float64 `json:"light_share"`
		WeightShare    float64 `json:"weight_share"`
		Tolerance      float64 `json:"tolerance"`
	} `json:"fairness"`
	Coalesce struct {
		SynthCalls      int64 `json:"synth_calls"`
		TenantARequests int64 `json:"tenant_a_requests"`
		TenantBRequests int64 `json:"tenant_b_requests"`
		Coalesced       int64 `json:"coalesced"`
	} `json:"coalesce"`
	Contention struct {
		Tenants          map[string]contentionSlice `json:"tenants"`
		Responses        int64                      `json:"responses"`
		Unclassified     int64                      `json:"unclassified"`
		MaxInteractiveMs float64                    `json:"max_interactive_latency_ms"`
	} `json:"contention"`
}

type contentionSlice struct {
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
}

// slowServe returns a ServeValidate hook that approves everything
// after a fixed delay — a stand-in for real per-request translation
// work, so one worker saturates and queues actually form.
func slowServe(d time.Duration) func(src, out *ir.Module) error {
	return func(src, out *ir.Module) error {
		time.Sleep(d)
		return nil
	}
}

// Phase 1: two equal-weight tenants, 10:1 offered load, one worker.
// DRR must split completions ~50/50 while both stay backlogged.
func soakFairness(t *testing.T, dur time.Duration, sum *tenantSoakSummary) {
	const heavyStreams, lightStreams = 20, 2
	svc := New(Config{
		Workers: 1, QueueDepth: 64, MaxHops: 1, Tenants: tenant.NewRegistry(nil, tenant.Defaults{}),
		ServeValidate: slowServe(2 * time.Millisecond),
	})
	defer svc.Close()
	pair := version.Pair{Source: version.V12_0, Target: version.V3_6}
	if err := svc.Warm(context.Background(), pair.Source, pair.Target); err != nil {
		t.Fatal(err)
	}
	m := corpus.Tests(pair.Source)[0].Module

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	stream := func(id string) {
		defer wg.Done()
		ctx := tenant.WithIdentity(context.Background(), id)
		for time.Now().Before(deadline) {
			if _, err := svc.Translate(ctx, pair.Source, pair.Target, m); err != nil {
				t.Errorf("tenant %s: %v", id, err)
				return
			}
		}
	}
	for i := 0; i < heavyStreams; i++ {
		wg.Add(1)
		go stream("heavy")
	}
	for i := 0; i < lightStreams; i++ {
		wg.Add(1)
		go stream("light")
	}
	wg.Wait()

	st := svc.Stats()
	heavy := st.Tenants["heavy"].Completed
	light := st.Tenants["light"].Completed
	total := heavy + light
	if total == 0 {
		t.Fatal("no requests completed")
	}
	heavyShare := float64(heavy) / float64(total)
	lightShare := float64(light) / float64(total)
	const weightShare, tol = 0.5, 0.20
	sum.Fairness.HeavyStreams = heavyStreams
	sum.Fairness.LightStreams = lightStreams
	sum.Fairness.HeavyCompleted = heavy
	sum.Fairness.LightCompleted = light
	sum.Fairness.HeavyShare = heavyShare
	sum.Fairness.LightShare = lightShare
	sum.Fairness.WeightShare = weightShare
	sum.Fairness.Tolerance = tol
	t.Logf("fairness: heavy %d (%.1f%%), light %d (%.1f%%) over %s",
		heavy, heavyShare*100, light, lightShare*100, dur)
	for id, share := range map[string]float64{"heavy": heavyShare, "light": lightShare} {
		if share < weightShare*(1-tol) || share > weightShare*(1+tol) {
			t.Errorf("tenant %s completed share %.3f outside %.0f%% of weight share %.2f — starvation under 10:1 load",
				id, share, tol*100, weightShare)
		}
	}
}

// Phase 2: cross-tenant coalescing — one synthesis, every requester
// charged.
func soakCoalesce(t *testing.T, sum *tenantSoakSummary) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 2, Tenants: tenant.NewRegistry(nil, tenant.Defaults{}), SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	text := sourceText(t, version.V12_0)
	errs := make(chan error, 2)
	run := func(id string) {
		ctx := tenant.WithIdentity(context.Background(), id)
		_, err := svc.TranslateTextResult(ctx, text, version.V12_0, version.V3_6)
		errs <- err
	}
	go run("a")
	<-started
	go run("b")
	waitFor(t, func() bool {
		svc.coMu.Lock()
		defer svc.coMu.Unlock()
		return len(svc.flights) == 1
	})
	time.Sleep(10 * time.Millisecond) // let b reach the flight
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("coalesced request: %v", err)
		}
	}

	st := svc.Stats()
	sum.Coalesce.SynthCalls = int64(calls.Load())
	sum.Coalesce.TenantARequests = st.Tenants["a"].Requests
	sum.Coalesce.TenantBRequests = st.Tenants["b"].Requests
	sum.Coalesce.Coalesced = st.Coalesced
	if calls.Load() != 1 || st.Cache.Synthesized != 1 {
		t.Errorf("identical (pair, input) from two tenants cost %d synth calls / %d cache synths, want 1/1",
			calls.Load(), st.Cache.Synthesized)
	}
	for _, id := range []string{"a", "b"} {
		if st.Tenants[id].Requests != 1 {
			t.Errorf("tenant %s recorded %d requests, want 1 — coalescing must not drop accounting",
				id, st.Tenants[id].Requests)
		}
	}
}

// Phase 3: the full stack — gateway auth, per-tenant metrics, fair
// queue — with one flooding tenant and two interactive ones. No
// unclassified response, no interactive starvation.
func soakContention(t *testing.T, dur time.Duration, sum *tenantSoakSummary) {
	reg := tenant.NewRegistry([]tenant.Tenant{
		{ID: "flood", Key: "k-flood"},
		{ID: "int1", Key: "k-int1"},
		{ID: "int2", Key: "k-int2"},
	}, tenant.Defaults{})
	svc := New(Config{
		Workers: 2, QueueDepth: 64, ShedAt: 16, MaxHops: 1,
		Tenants:       reg,
		JobTimeout:    10 * time.Second,
		ServeValidate: slowServe(2 * time.Millisecond),
	})
	defer svc.Close()
	gw := tenant.NewGateway(tenant.GatewayConfig{Registry: reg, Metrics: svc.Metrics()})
	srv := httptest.NewServer(gw.Wrap(NewHandler(svc, HandlerOpts{GatewayStats: gw.Stats})))
	defer srv.Close()

	pair := version.Pair{Source: version.V12_0, Target: version.V3_6}
	if err := svc.Warm(context.Background(), pair.Source, pair.Target); err != nil {
		t.Fatal(err)
	}
	// Distinct inputs so coalescing does not collapse the flood into
	// one request per round.
	var texts []string
	for _, tc := range corpus.Tests(pair.Source) {
		text, err := irtext.NewWriter(pair.Source).WriteModule(tc.Module)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
		if len(texts) == 4 {
			break
		}
	}

	var responses, unclassified atomic.Int64
	var maxInteractiveNs atomic.Int64
	slices := map[string]*contentionSlice{
		"flood": {}, "int1": {}, "int2": {},
	}
	var mu sync.Mutex
	post := func(key, text string) (int, time.Duration) {
		body, _ := json.Marshal(TranslateRequest{Source: "12.0", Target: "3.6", IR: text})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/translate", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+key)
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("post: %v", err)
			return 0, 0
		}
		defer resp.Body.Close()
		elapsed := time.Since(start)
		responses.Add(1)
		if resp.StatusCode != http.StatusOK {
			var e ErrorResponse
			raw, _ := io.ReadAll(resp.Body)
			if json.Unmarshal(raw, &e) != nil || e.Class == "" || e.ExitCode == 0 {
				unclassified.Add(1)
				t.Errorf("unclassified %d response: %s", resp.StatusCode, raw)
			}
		}
		return resp.StatusCode, elapsed
	}
	account := func(id string, code int) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case code == http.StatusOK:
			slices[id].Completed++
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			slices[id].Rejected++
		default:
			slices[id].Failed++
		}
	}

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ { // the flood: 12 streams, cycling inputs
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := i; time.Now().Before(deadline); n++ {
				code, _ := post("k-flood", texts[n%len(texts)])
				account("flood", code)
			}
		}(i)
	}
	for _, id := range []string{"int1", "int2"} { // interactive: one stream each, paced
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				code, elapsed := post("k-"+id, texts[0])
				account(id, code)
				if code == http.StatusOK {
					for {
						prev := maxInteractiveNs.Load()
						if int64(elapsed) <= prev || maxInteractiveNs.CompareAndSwap(prev, int64(elapsed)) {
							break
						}
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(id)
	}
	wg.Wait()

	sum.Contention.Tenants = map[string]contentionSlice{}
	for id, s := range slices {
		sum.Contention.Tenants[id] = *s
	}
	sum.Contention.Responses = responses.Load()
	sum.Contention.Unclassified = unclassified.Load()
	maxInt := time.Duration(maxInteractiveNs.Load())
	sum.Contention.MaxInteractiveMs = float64(maxInt) / float64(time.Millisecond)
	t.Logf("contention: %v over %s, max interactive latency %s", sum.Contention.Tenants, dur, maxInt)

	if unclassified.Load() != 0 {
		t.Errorf("%d unclassified responses", unclassified.Load())
	}
	for _, id := range []string{"int1", "int2"} {
		s := slices[id]
		if s.Completed == 0 {
			t.Errorf("interactive tenant %s completed nothing: starved by the flood", id)
		}
		if s.Failed != 0 {
			t.Errorf("interactive tenant %s: %d hard failures", id, s.Failed)
		}
	}
	// Starvation bound: an interactive request rides through a fair
	// queue in which it holds one of three turns; even under flood its
	// latency must stay far below the soak duration.
	if maxInt > 2*time.Second {
		t.Errorf("max interactive latency %s: fair queue is not isolating the flood", maxInt)
	}
	st := svc.Stats()
	for id := range slices {
		if ts, ok := st.Tenants[id]; !ok || ts.Requests == 0 {
			t.Errorf("tenant %s missing from per-tenant service stats", id)
		}
	}
	gws := gw.Stats()
	for id := range slices {
		if gws[id].Admitted == 0 {
			t.Errorf("tenant %s missing from gateway stats", id)
		}
	}
}
