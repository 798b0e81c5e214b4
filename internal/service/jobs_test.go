package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/version"
)

func newJobsT(t *testing.T, svc *Service, dir string) *Jobs {
	t.Helper()
	js, _, err := NewJobs(svc, JobsConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// waitTerminal polls until the job is terminal or the deadline hits.
func waitTerminal(t *testing.T, js *Jobs, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, ok := js.Wait(ctx, id, 60*time.Second)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if !JobState(v.State).Terminal() {
		t.Fatalf("job %s not terminal after wait: %s", id, v.State)
	}
	return v
}

func TestJobsSubmitToDone(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()

	ids, err := js.Submit(context.Background(), []BatchItem{
		{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)},
		{Source: "auto", Target: "12.0", IR: sourceText(t, version.V3_6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("got %d ids, want 2", len(ids))
	}
	for _, id := range ids {
		v := waitTerminal(t, js, id)
		if v.State != string(JobDone) {
			t.Fatalf("job %s: state %s (%s / %s)", id, v.State, v.Class, v.Error)
		}
		if v.IR == "" {
			t.Fatalf("job %s done with empty result", id)
		}
	}
	// Detection replaced the "auto" source with a concrete version.
	if v, _ := js.Get(ids[1]); v.Source == "auto" || v.Source == "" {
		t.Fatalf("source not detected: %q", v.Source)
	} else if _, err := version.Parse(v.Source); err != nil {
		t.Fatalf("detected source %q does not parse: %v", v.Source, err)
	}
}

// The whole batch is validated before any job is accepted: one bad
// target rejects everything, leaving no orphans.
func TestJobsBatchAtomicValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()

	_, err := js.Submit(context.Background(), []BatchItem{
		{Source: "12.0", Target: "3.6", IR: "m"},
		{Source: "12.0", Target: "not-a-version", IR: "m"},
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	counts, views := js.List(0)
	if len(views) != 0 || len(counts) != 0 {
		t.Fatalf("rejected batch left jobs behind: %v", views)
	}
}

// A restart replays the journal: terminal jobs stay terminal with
// their results, unfinished jobs resume and complete — exactly once.
func TestJobsRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	svc := New(Config{Workers: 2, CacheDir: cacheDir})
	js := newJobsT(t, svc, dir)

	ids, err := js.Submit(context.Background(), []BatchItem{{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, js, ids[0])
	if done.State != string(JobDone) {
		t.Fatalf("job failed: %s %s", done.Class, done.Error)
	}
	// Inject a job the first incarnation never ran: journal it directly
	// as accepted, simulating a crash right after acceptance.
	js.mu.Lock()
	orphan := &jobRec{
		id: "orphan01", seq: js.seq, source: "12.0", target: "3.6",
		ir: sourceText(t, version.V12_0), state: JobAccepted,
		submitted: time.Now(), done: make(chan struct{}),
	}
	js.seq++
	raw, _ := json.Marshal(orphan.wire())
	js.mu.Unlock()
	if err := js.jl.Append(raw); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Second incarnation over the same dirs.
	svc2 := New(Config{Workers: 2, CacheDir: cacheDir})
	defer svc2.Close()
	js2, rec, err := NewJobs(svc2, JobsConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer js2.Close()
	if rec.Jobs != 2 || rec.Resumed != 1 {
		t.Fatalf("recovery = %+v, want 2 jobs / 1 resumed", rec)
	}
	// The finished job is immediately terminal with its result intact.
	v, ok := js2.Get(ids[0])
	if !ok || v.State != string(JobDone) || v.IR != done.IR {
		t.Fatalf("replayed job %s: ok=%v state=%s (result match=%v)", ids[0], ok, v.State, v.IR == done.IR)
	}
	// The orphan runs to completion (instantly, off the shared cache).
	ov := waitTerminal(t, js2, "orphan01")
	if ov.State != string(JobDone) {
		t.Fatalf("orphan: %s %s %s", ov.State, ov.Class, ov.Error)
	}
}

// Jobs whose translation fails are terminal with a classified failure,
// and stay failed across a restart.
func TestJobsFailureClassified(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{Workers: 1})
	js := newJobsT(t, svc, dir)

	ids, err := js.Submit(context.Background(), []BatchItem{{Source: "12.0", Target: "3.6", IR: "this is not IR"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, js, ids[0])
	if v.State != string(JobFailed) || v.Class == "" {
		t.Fatalf("state=%s class=%q, want failed with a class", v.State, v.Class)
	}
	js.Close()
	svc.Close()

	svc2 := New(Config{Workers: 1})
	defer svc2.Close()
	js2, rec, err := NewJobs(svc2, JobsConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer js2.Close()
	if rec.Resumed != 0 {
		t.Fatalf("failed job resumed: %+v", rec)
	}
	if v2, _ := js2.Get(ids[0]); v2.State != string(JobFailed) || v2.Class != v.Class {
		t.Fatalf("replayed failure %s/%q, want %s/%q", v2.State, v2.Class, v.State, v.Class)
	}
}

// RetainDone bounds terminal retention: the oldest terminal jobs are
// evicted at checkpoint/recovery and poll as 404 afterwards.
func TestJobsRetainDoneEviction(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{Workers: 2})
	js, _, err := NewJobs(svc, JobsConfig{Dir: dir, NoSync: true, RetainDone: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := sourceText(t, version.V12_0)
	var ids []string
	for i := 0; i < 4; i++ {
		batch, err := js.Submit(context.Background(), []BatchItem{{Source: "12.0", Target: "3.6", IR: text}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, js, batch[0])
		ids = append(ids, batch[0])
	}
	// Force the compaction that applies retention.
	if err := js.jl.Checkpoint(js.snapshot); err != nil {
		t.Fatal(err)
	}
	if _, ok := js.Get(ids[0]); ok {
		t.Fatalf("oldest terminal job survived eviction")
	}
	if _, ok := js.Get(ids[3]); !ok {
		t.Fatalf("newest terminal job evicted")
	}
	js.Close()
	svc.Close()
}

// The HTTP surface: POST /v1/batch returns 202 with ids, long-poll
// GET /v1/jobs/{id}?wait= returns the terminal state, unknown ids are
// 404 with the standard JSON error body, and GET /v1/jobs summarizes.
func TestJobsHTTPRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{Jobs: js, PollTimeout: 30 * time.Second}))
	defer srv.Close()

	body, _ := json.Marshal(BatchRequest{Jobs: []BatchItem{{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}}})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d, want 202", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Jobs) != 1 || br.Jobs[0].State != string(JobAccepted) {
		t.Fatalf("batch response %+v", br)
	}

	// Long-poll until terminal.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + br.Jobs[0].ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.State != string(JobDone) || view.IR == "" {
		t.Fatalf("long-poll view %+v", view)
	}

	// Unknown id: 404 with the standard error body.
	resp, err = http.Get(srv.URL + "/v1/jobs/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(e.Error, "unknown job id") {
		t.Fatalf("404 body %+v", e)
	}

	// The summary endpoint reports the terminal count without payloads.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jr JobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Counts[string(JobDone)] != 1 {
		t.Fatalf("jobs summary %+v", jr)
	}
	for _, v := range jr.Jobs {
		if v.IR != "" {
			t.Fatalf("summary leaked a payload for %s", v.ID)
		}
	}
}

// A bounded long-poll on a job that never finishes returns the current
// state once the wait elapses instead of hanging.
func TestJobsLongPollBounded(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()

	// A job that cannot start: inject directly so no runner owns it.
	js.mu.Lock()
	j := &jobRec{id: "parked01", seq: js.seq, target: "3.6", state: JobAccepted, submitted: time.Now(), done: make(chan struct{})}
	js.seq++
	js.byID[j.id] = j
	js.mu.Unlock()

	start := time.Now()
	v, ok := js.Wait(context.Background(), "parked01", 100*time.Millisecond)
	if !ok || v.State != string(JobAccepted) {
		t.Fatalf("wait = %+v ok=%v", v, ok)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("long-poll returned after %v, want ~100ms", elapsed)
	}
}

// Synchronous translates, JSON or text (buffered and truly streamed),
// leave no trace in the job journal: only async jobs are durable.
func TestSyncTranslateWritesNoJournal(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	js := newJobsT(t, svc, t.TempDir())
	defer js.Close()
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{Jobs: js}))
	defer srv.Close()
	before := js.Journal().ActiveSize()

	text := sourceText(t, version.V12_0)
	post := func(url, contentType string, body []byte) {
		t.Helper()
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
	}
	jsonBody, _ := json.Marshal(TranslateRequest{Source: "12.0", Target: "3.6", IR: text})
	for i := 0; i < 5; i++ {
		post(srv.URL+"/v1/translate", "application/json", jsonBody)
		// Small text bodies take the buffered branch, ?partial=1 always
		// truly streams.
		post(srv.URL+"/v1/translate?source=12.0&target=3.6", "text/plain", []byte(text))
		post(srv.URL+"/v1/translate?source=12.0&target=3.6&partial=1", "text/plain", []byte(text))
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if after := js.Journal().ActiveSize(); after != before {
		t.Fatalf("journal grew %d -> %d bytes", before, after)
	}
}
