package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/irtext"
	"repro/internal/obs"
	"repro/internal/version"
)

// postTranslate round-trips one /v1/translate request.
func postTranslate(t *testing.T, url string, req TranslateRequest) (*http.Response, TranslateResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/translate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TranslateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func sourceText(t *testing.T, src version.V) string {
	t.Helper()
	text, err := irtext.NewWriter(src).WriteModule(corpus.Tests(src)[0].Module)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// The acceptance criterion, in-process: after one uncached and one
// cached translation, /metrics exposes non-zero request, cache, and
// stage-latency series in Prometheus text format.
func TestMetricsEndpointAfterTraffic(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	req := TranslateRequest{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}
	for i := 0; i < 2; i++ { // first: cold synthesis; second: memory hit
		if resp, _ := postTranslate(t, srv.URL, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("translate %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, series := range []string{
		`siro_requests_total{outcome="ok"} 2`,
		`siro_cache_lookups_total 2`,
		`siro_cache_events_total{event="memory_hit"} 1`,
		`siro_cache_events_total{event="synthesized"} 1`,
		`siro_stage_seconds_count{stage="parse"} 2`,
		`siro_stage_seconds_count{stage="translate"} 2`,
		`siro_stage_seconds_count{stage="synth"} 1`,
		`siro_stage_seconds_count{stage="queue"} 2`,
		`siro_synth_validations_total`,
		`siro_queue_wait_seconds_count 2`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q\n--- exposition ---\n%s", series, text)
		}
	}
	if strings.Contains(text, "siro_synth_validations_total 0\n") {
		t.Error("synthesis ran but enumeration counters stayed zero")
	}
}

// The stages field of TranslateResponse is the per-request breakdown:
// a cold request shows synthesis, a warm one doesn't.
func TestTranslateResponseStages(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	req := TranslateRequest{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}
	stageSet := func(resp TranslateResponse) map[string]bool {
		set := map[string]bool{}
		for _, s := range resp.Stages {
			set[s.Name] = true
			if s.Ns < 0 {
				t.Errorf("stage %s has negative duration %d", s.Name, s.Ns)
			}
		}
		return set
	}

	_, cold := postTranslate(t, srv.URL, req)
	got := stageSet(cold)
	for _, want := range []string{stageParse, stageQueue, stageCache, stageSynth, stageTranslate, stageWrite} {
		if !got[want] {
			t.Errorf("cold request missing stage %q (got %v)", want, cold.Stages)
		}
	}

	_, warm := postTranslate(t, srv.URL, req)
	got = stageSet(warm)
	if got[stageSynth] {
		t.Errorf("warm request reports a synth stage: %v", warm.Stages)
	}
	for _, want := range []string{stageParse, stageQueue, stageCache, stageTranslate, stageWrite} {
		if !got[want] {
			t.Errorf("warm request missing stage %q (got %v)", want, warm.Stages)
		}
	}

	// Auto-detection reports detect instead of parse.
	_, auto := postTranslate(t, srv.URL, TranslateRequest{Source: "auto", Target: "3.6", IR: sourceText(t, version.V12_0)})
	if set := stageSet(auto); !set[stageDetect] || set[stageParse] {
		t.Errorf("auto-detect stages: %v", auto.Stages)
	}
}

// Satellite regression: an oversized /v1/translate body is rejected
// with 413 and the Parse failure class instead of being buffered.
func TestTranslateBodyTooLarge(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{MaxBodyBytes: 1024}))
	defer srv.Close()

	big, err := json.Marshal(TranslateRequest{Source: "12.0", Target: "3.6", IR: strings.Repeat("x", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/translate", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Class != failure.Parse.Error() {
		t.Fatalf("class %q, want %q", e.Class, failure.Parse.Error())
	}

	// A body under the bound still works.
	if resp2, _ := postTranslate(t, srv.URL, TranslateRequest{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}); resp2.StatusCode != http.StatusOK {
		t.Fatalf("small body rejected: %d", resp2.StatusCode)
	}
}

// Satellite regression: every endpoint rejects wrong methods with 405
// and an Allow header — not just /v1/translate.
func TestEndpointMethodMatrix(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	jobs, _, err := NewJobs(svc, JobsConfig{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jobs.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{Jobs: jobs}))
	defer srv.Close()
	client := srv.Client()

	endpoints := []struct{ path, allow string }{
		{"/v1/translate", http.MethodPost},
		{"/v1/batch", http.MethodPost},
		{"/v1/jobs", http.MethodGet},
		{"/v1/jobs/no-such-id", http.MethodGet},
		{"/v1/stats", http.MethodGet},
		{"/v1/versions", http.MethodGet},
		{"/healthz", http.MethodGet},
		{"/readyz", http.MethodGet},
		{"/metrics", http.MethodGet},
	}
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodHead}
	for _, ep := range endpoints {
		for _, m := range methods {
			req, err := http.NewRequest(m, srv.URL+ep.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if m == ep.allow {
				if resp.StatusCode == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: rejected its own method", m, ep.path)
				}
				continue
			}
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", m, ep.path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != ep.allow {
				t.Errorf("%s %s: Allow %q, want %q", m, ep.path, allow, ep.allow)
			}
		}
	}
}

// Readiness is not liveness: before a drain /readyz and /healthz both
// answer 200; once a drain starts the service must flip /readyz to 503
// (with a Retry-After hint for a load balancer's probe) while
// /healthz keeps reporting the process alive.
func TestReadyzDrainSequence(t *testing.T) {
	svc := New(Config{Workers: 1})
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before drain: %d, want 200", resp.StatusCode)
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 is missing the Retry-After hint")
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain: %d, want 200 (drained is still alive)", resp.StatusCode)
	}
}

// pprof is mounted only behind the explicit opt-in.
func TestPprofMounting(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	off := httptest.NewServer(Handler(svc))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: %d", resp.StatusCode)
	}

	on := httptest.NewServer(NewHandler(svc, HandlerOpts{Pprof: true}))
	defer on.Close()
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: status %d body %.80s", resp2.StatusCode, body)
	}
}

// The slow-request log captures a JSON line with the stage breakdown
// for requests past the threshold (0 = every request).
func TestHandlerSlowLog(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	var buf bytes.Buffer
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{SlowLog: obs.NewSlowLog(&buf, 0)}))
	defer srv.Close()

	if resp, _ := postTranslate(t, srv.URL, TranslateRequest{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("translate: %d", resp.StatusCode)
	}
	line := buf.String()
	if line == "" {
		t.Fatal("no slow-log line")
	}
	var entry struct {
		ElapsedNs int64          `json:"elapsed_ns"`
		Stages    []obs.Stage    `json:"stages"`
		Fields    map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &entry); err != nil {
		t.Fatalf("slow log is not one JSON line: %v (%q)", err, line)
	}
	if entry.ElapsedNs <= 0 || len(entry.Stages) == 0 {
		t.Fatalf("slow log entry incomplete: %+v", entry)
	}
	if entry.Fields["outcome"] != "ok" || entry.Fields["target"] != "3.6" {
		t.Fatalf("slow log fields: %+v", entry.Fields)
	}
}

// Satellite regression: in every Stats snapshot taken while traffic is
// in flight, the cache's per-outcome counters sum to at most Lookups,
// and request outcomes never exceed Requests. Run under -race this
// also gates the snapshot paths against data races.
func TestStatsSnapshotBounds(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	pair := version.Pair{Source: version.V12_0, Target: version.V3_6}
	m := corpus.Tests(pair.Source)[0].Module

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := svc.Translate(context.Background(), pair.Source, pair.Target, m); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(st Stats) {
		outcomes := st.Cache.MemoryHits + st.Cache.DiskHits + st.Cache.Synthesized + st.Cache.Deduplicated
		if outcomes > st.Cache.Lookups {
			t.Errorf("snapshot tearing: %d cache outcomes > %d lookups", outcomes, st.Cache.Lookups)
		}
		if st.Completed+st.Failed > st.Requests {
			t.Errorf("snapshot tearing: %d request outcomes > %d requests", st.Completed+st.Failed, st.Requests)
		}
	}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			check(svc.Stats())
		}
	}

	st := svc.Stats()
	check(st)
	if st.Requests != 100 || st.Completed != 100 {
		t.Fatalf("requests=%d completed=%d, want 100/100", st.Requests, st.Completed)
	}
	if st.Cache.Lookups == 0 || st.Cache.MemoryHits == 0 {
		t.Fatalf("expected cache traffic, got %+v", st.Cache)
	}
}
