package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/resilience"
	"repro/internal/tenant"
	"repro/internal/version"
)

// --- GET /v1/jobs bounds and ordering (satellite regression) ---------

// The jobs summary is bounded and deterministically ordered: newest
// first by submission sequence, ?limit= (default 100) jobs returned,
// counts still covering every known job.
func TestJobsListLimitNewestFirst(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()

	text := sourceText(t, version.V12_0)
	var ids []string
	for i := 0; i < 5; i++ { // separate batches so submission order is total
		batch, err := js.Submit(context.Background(), []BatchItem{{Source: "12.0", Target: "3.6", IR: text}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, batch[0])
	}

	counts, views := js.List(3)
	if len(views) != 3 {
		t.Fatalf("List(3) returned %d views", len(views))
	}
	// Newest first: the last three submissions, in reverse order.
	for i := 0; i < 3; i++ {
		if want := ids[4-i]; views[i].ID != want {
			t.Fatalf("views[%d] = %s, want %s (newest first)", i, views[i].ID, want)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 5 {
		t.Fatalf("counts cover %d jobs, want all 5", total)
	}
	if _, all := js.List(0); len(all) != 5 {
		t.Fatalf("List(0) returned %d views, want the default limit to cover all 5", len(all))
	}

	// The HTTP surface: ?limit= honored, bad values 400.
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{Jobs: js}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var jr JobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jr.Jobs) != 2 || jr.Jobs[0].ID != ids[4] {
		t.Fatalf("?limit=2 returned %d jobs (first %s), want 2 newest-first", len(jr.Jobs), jr.Jobs[0].ID)
	}
	for _, bad := range []string{"0", "-1", "x"} {
		resp, err := http.Get(srv.URL + "/v1/jobs?limit=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?limit=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// --- quota rejections carry Retry-After (satellite status matrix) ----

// tenantStack wires the full production sandwich for tests: registry →
// gateway → handler(+jobs) → service.
func tenantStack(t *testing.T, svc *Service, tenants []tenant.Tenant, js *Jobs) (*tenant.Registry, *httptest.Server) {
	t.Helper()
	reg := tenant.NewRegistry(tenants, tenant.Defaults{})
	if js != nil {
		js.cfg.JobQuota = reg.MaxJobs
	}
	gw := tenant.NewGateway(tenant.GatewayConfig{Registry: reg, Metrics: svc.Metrics()})
	opts := HandlerOpts{Jobs: js, GatewayStats: gw.Stats}
	srv := httptest.NewServer(gw.Wrap(NewHandler(svc, opts)))
	t.Cleanup(srv.Close)
	return reg, srv
}

func postJSON(t *testing.T, url, key string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// assert429 checks the quota-rejection contract: 429, a usable
// Retry-After, Budget class in the body.
func assert429(t *testing.T, resp *http.Response, what string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("%s: status %d, want 429", what, resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("%s: 429 without usable Retry-After (%q)", what, ra)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: body: %v", what, err)
	}
	if body.Class != failure.Budget.Error() {
		t.Fatalf("%s: class %q, want %q", what, body.Class, failure.Budget.Error())
	}
}

// Every new 429 path carries Retry-After: the per-tenant rate limit
// and the per-tenant concurrent-job quota, through the full gateway +
// handler stack.
func TestQuotaRejectionStatusMatrix(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()
	_, srv := tenantStack(t, svc, []tenant.Tenant{
		{ID: "rated", Key: "k-rated", RatePerSec: 0.5, Burst: 1},
		{ID: "capped", Key: "k-capped", MaxJobs: 1},
	}, js)

	// Rate limit: the single-token burst admits one request, the next
	// 429s at the front door.
	resp := postJSON(t, srv.URL+"/v1/batch", "k-rated", BatchRequest{Jobs: []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first rated request: %d", resp.StatusCode)
	}
	resp.Body.Close()
	assert429(t, postJSON(t, srv.URL+"/v1/batch", "k-rated", BatchRequest{}), "rate limit")

	// Job quota: a batch that would exceed the tenant's concurrent-job
	// cap is refused atomically with the same contract.
	assert429(t, postJSON(t, srv.URL+"/v1/batch", "k-capped", BatchRequest{Jobs: []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)},
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)},
	}}), "job quota")

	// The quota rejection is typed: direct Submit sees the Quota kind.
	ctx := tenant.WithIdentity(context.Background(), "capped")
	_, err := js.Submit(ctx, []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)},
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)},
	})
	var rej *resilience.Rejection
	if !asRejection(err, &rej) || rej.Kind != resilience.Quota {
		t.Fatalf("Submit over quota = %v, want a Quota rejection", err)
	}
}

// --- tenant removed while jobs queued --------------------------------

// Removing a tenant mid-stream is drain, not abort: already-accepted
// jobs run to completion under the departed identity while new
// submissions on the revoked key get 401.
func TestTenantRemovedWhileJobsQueued(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 1, MaxHops: 1, SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()
	defer release()
	reg, srv := tenantStack(t, svc, []tenant.Tenant{{ID: "dep", Key: "k-dep"}}, js)

	resp := postJSON(t, srv.URL+"/v1/batch", "k-dep", BatchRequest{Jobs: []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc struct {
		Jobs []BatchJobRef `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-started // the job is synthesizing, held by the gate

	reg.Replace([]tenant.Tenant{{ID: "other", Key: "k-other"}})

	// The revoked key can no longer submit.
	resp = postJSON(t, srv.URL+"/v1/batch", "k-dep", BatchRequest{Jobs: []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked key submit: status %d, want 401", resp.StatusCode)
	}

	// The queued job still finishes, attributed to the departed tenant.
	release()
	v := waitTerminal(t, js, acc.Jobs[0].ID)
	if v.State != string(JobDone) {
		t.Fatalf("orphaned job state = %s (%s)", v.State, v.Error)
	}
	if v.Tenant != "dep" {
		t.Fatalf("job tenant = %q, want dep", v.Tenant)
	}
}

// --- cross-tenant coalescing -----------------------------------------

// Two tenants requesting the identical (pair, input) at the same time
// cost one synthesis and one translation; each tenant is still
// recorded and charged individually.
func TestCoalesceAcrossTenants(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 2, Tenants: tenant.NewRegistry(nil, tenant.Defaults{}), SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	text := sourceText(t, version.V12_0)
	type out struct {
		res TextResult
		err error
	}
	results := make(chan out, 2)
	run := func(id string) {
		ctx := tenant.WithIdentity(context.Background(), id)
		r, err := svc.TranslateTextResult(ctx, text, version.V12_0, version.V3_6)
		results <- out{r, err}
	}
	go run("a")
	<-started // tenant a's flight is registered and synthesizing
	go run("b")
	// b can only join a's flight; give it a moment to arrive there,
	// then release the leader.
	waitFor(t, func() bool {
		svc.coMu.Lock()
		defer svc.coMu.Unlock()
		return len(svc.flights) == 1
	})
	time.Sleep(10 * time.Millisecond)
	release()

	var rendered [2]string
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("translate: %v", o.err)
		}
		rendered[i] = o.res.Rendered
	}
	if rendered[0] != rendered[1] {
		t.Fatal("coalesced requests disagree on output")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("synthesis ran %d times, want exactly 1", n)
	}

	st := svc.Stats()
	if st.Cache.Synthesized != 1 {
		t.Fatalf("cache synthesized %d translators, want 1", st.Cache.Synthesized)
	}
	for _, id := range []string{"a", "b"} {
		ts := st.Tenants[id]
		if ts.Requests != 1 || ts.Completed != 1 {
			t.Fatalf("tenant %s stats = %+v, want 1 request / 1 completed", id, ts)
		}
	}
	if st.Coalesced < 1 {
		t.Fatalf("coalesced = %d, want >= 1", st.Coalesced)
	}
}

// A coalesced follower whose leader died on its own deadline must not
// inherit that Budget verdict: it retries as leader.
func TestCoalesceFollowerRetriesLeaderBudget(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 2, MaxHops: 1, Tenants: tenant.NewRegistry(nil, tenant.Defaults{}), SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	text := sourceText(t, version.V12_0)
	leaderCtx, cancelLeader := context.WithCancel(tenant.WithIdentity(context.Background(), "a"))
	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.TranslateTextResult(leaderCtx, text, version.V12_0, version.V3_6)
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan error, 1)
	go func() {
		ctx := tenant.WithIdentity(context.Background(), "b")
		_, err := svc.TranslateTextResult(ctx, text, version.V12_0, version.V3_6)
		followerDone <- err
	}()
	waitFor(t, func() bool {
		svc.coMu.Lock()
		defer svc.coMu.Unlock()
		return len(svc.flights) == 1
	})
	time.Sleep(10 * time.Millisecond)

	cancelLeader() // the leader's own budget dies; synthesis continues detached
	if err := <-leaderDone; failure.ClassOf(err) != failure.Budget {
		t.Fatalf("cancelled leader error class = %v, want Budget", failure.ClassOf(err))
	}
	release() // detached synthesis completes into the cache
	if err := <-followerDone; err != nil {
		t.Fatalf("follower inherited the leader's budget failure: %v", err)
	}
}

// --- fair queueing through the service -------------------------------

// Per-tenant shedding: one tenant saturating its own queue is shed
// while another tenant's admission stays open, and both tenants'
// admitted work completes.
func TestFairQueuePerTenantShed(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 1, QueueDepth: 2, ShedAt: 2, MaxHops: 1, Tenants: tenant.NewRegistry(nil, tenant.Defaults{}),
		SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	m := benchModule(t, version.V12_0)
	ctxA := tenant.WithIdentity(context.Background(), "a")
	ctxB := tenant.WithIdentity(context.Background(), "b")

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	translate := func(ctx context.Context) {
		defer wg.Done()
		_, err := svc.Translate(ctx, version.V12_0, version.V3_6, m)
		errs <- err
	}

	// Occupy the worker with a's first job, then fill a's queue.
	wg.Add(1)
	go translate(ctxA)
	<-started
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go translate(ctxA)
	}
	waitFor(t, func() bool { return svc.fq.Depth("a") == 2 })

	// a's queue is full: a is shed...
	_, err := svc.Translate(ctxA, version.V12_0, version.V3_6, m)
	var rej *resilience.Rejection
	if !asRejection(err, &rej) || rej.Kind != resilience.Overload {
		t.Fatalf("saturated tenant not shed: %v", err)
	}
	// ...but b still admits.
	wg.Add(1)
	go translate(ctxB)
	waitFor(t, func() bool { return svc.fq.Depth("b") == 1 })

	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
	st := svc.Stats()
	if st.Tenants["a"].Shed != 1 {
		t.Fatalf("tenant a shed = %d, want 1", st.Tenants["a"].Shed)
	}
	if st.Tenants["b"].Shed != 0 || st.Tenants["b"].Completed != 1 {
		t.Fatalf("tenant b stats = %+v, want no shed, 1 completed", st.Tenants["b"])
	}
}

// --- anonymous metric surface ----------------------------------------

// Identity-less traffic never mints tenant series or per-tenant stats:
// not in an untenanted service (the anonymous deployment's metric
// surface), and not in a tenanted one whose fair queue and coalescing
// see requests without an identity.
func TestAnonymousTrafficMintsNoTenantSeries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tenants *tenant.Registry
	}{
		{"untenanted", nil},
		{"tenanted", tenant.NewRegistry(nil, tenant.Defaults{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{Workers: 2, Tenants: tc.tenants})
			defer svc.Close()
			srv := httptest.NewServer(Handler(svc))
			defer srv.Close()

			text := sourceText(t, version.V12_0)
			if resp, _ := postTranslate(t, srv.URL, TranslateRequest{Source: "12.0", Target: "3.6", IR: text}); resp.StatusCode != http.StatusOK {
				t.Fatalf("JSON translate: status %d", resp.StatusCode)
			}
			if resp, _ := postTranslate(t, srv.URL, TranslateRequest{Source: "12.0", Target: "3.6", IR: "not IR"}); resp.StatusCode == http.StatusOK {
				t.Fatal("malformed JSON translate succeeded")
			}
			// A body of unknown length always takes the streaming path.
			body := io.MultiReader(strings.NewReader(text))
			resp, err := http.Post(srv.URL+"/v1/translate?source=12.0&target=3.6", "text/plain", body)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Siro-Status") != "ok" {
				t.Fatalf("stream translate: status %d, X-Siro-Status %q", resp.StatusCode, resp.Trailer.Get("X-Siro-Status"))
			}

			st := svc.Stats()
			if st.Stream.Requests != 1 || st.Requests < 2 {
				t.Fatalf("traffic not recorded: %d requests, %d streamed", st.Requests, st.Stream.Requests)
			}
			if len(st.Tenants) != 0 {
				t.Fatalf("anonymous traffic sliced into tenants: %+v", st.Tenants)
			}
			if metrics := scrape(t, http.DefaultClient, srv.URL+"/metrics"); strings.Contains(metrics, "siro_tenant_") {
				t.Fatalf("anonymous traffic minted tenant series:\n%s", metrics)
			}
		})
	}
}

// asRejection is errors.As, named for what the call sites ask.
func asRejection(err error, rej **resilience.Rejection) bool {
	return errors.As(err, rej)
}
