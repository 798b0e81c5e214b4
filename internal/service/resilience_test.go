package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/version"
)

// gatedSynth returns a SynthFn that signals when entered and blocks
// until the gate closes, counting calls.
func gatedSynth(started chan<- struct{}, gate <-chan struct{}, calls *atomic.Int32) SynthFn {
	return func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return DefaultSynthFn(pair, opts)
	}
}

// releaseOnce returns an idempotent opener for a gatedSynth gate. A
// test defers it after its deferred Close so it runs first: a test that
// fails while a worker is parked in gatedSynth must release the worker,
// or the deferred Close waits on it forever and the package dies at the
// go test timeout instead of failing.
func releaseOnce(gate chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// A full queue sheds instead of blocking: the rejection is typed
// Overload, Budget-classed, and counted.
func TestServiceShedsWhenQueueFull(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 1, QueueDepth: 1, MaxHops: 1, SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	m := corpus.Tests(version.V12_0)[0].Module
	done := make(chan error, 2)
	go func() { _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); done <- err }()
	<-started // worker busy
	go func() { _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); done <- err }()
	waitFor(t, func() bool { return len(svc.jobs) == 1 }) // queue full

	_, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	var rej *resilience.Rejection
	if !errors.As(err, &rej) || rej.Kind != resilience.Overload {
		t.Fatalf("full queue did not shed: %v", err)
	}
	if !errors.Is(err, failure.Budget) {
		t.Fatalf("shed rejection class: %v", err)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request %d failed after gate opened: %v", i, err)
		}
	}
	if st := svc.Stats(); st.Shed == 0 {
		t.Fatalf("shed not counted: %+v", st)
	}
}

// A draining service rejects admission with a typed Draining rejection
// and still completes the work already in flight.
func TestServiceDrainRejectsAndFlushes(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	svc := New(Config{Workers: 1, MaxHops: 1, SynthFn: gatedSynth(started, gate, &calls)})

	m := corpus.Tests(version.V12_0)[0].Module
	done := make(chan error, 1)
	go func() { _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); done <- err }()
	<-started

	// A short drain deadline expires while the job is stuck.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, failure.Budget) {
		t.Fatalf("drain deadline: got %v, want Budget", err)
	}

	// Admission is already stopped.
	_, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	var rej *resilience.Rejection
	if !errors.As(err, &rej) || rej.Kind != resilience.Draining {
		t.Fatalf("draining service admitted work: %v", err)
	}

	// The stuck job flushes once unblocked, and the drain completes.
	close(gate)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight job dropped during drain: %v", err)
	}
	if st := svc.Stats(); st.DrainSeconds <= 0 {
		t.Fatalf("drain duration not recorded: %+v", st)
	}
}

// Satellite regression: Warm honors ctx cancellation once queued — the
// caller unblocks with Budget — while the synthesis completes detached
// and lands in the cache (work conservation).
func TestWarmCancellationDetached(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 1, MaxHops: 1, SynthFn: gatedSynth(started, gate, &calls)})
	defer svc.Close()
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Warm(ctx, version.V12_0, version.V3_6) }()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, failure.Budget) {
			t.Fatalf("canceled Warm returned %v, want Budget", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Warm did not honor cancellation while synthesis hung")
	}

	// The abandoned synthesis still completes and is cached: the next
	// request is a memory hit, with no second synthesis.
	release()
	waitFor(t, func() bool { return svc.cache.Stats().Synthesized == 1 })
	m := corpus.Tests(version.V12_0)[0].Module
	if _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); err != nil {
		t.Fatalf("translate after warm: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("SynthFn ran %d times, want 1 (canceled warm-up conserved)", got)
	}
}

// A cached translator that fails serve-time differential validation is
// quarantined on disk and resynthesized once, and the request is
// served by the fresh translator.
func TestServeValidationQuarantines(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int32
	var failures atomic.Int32
	svc := New(Config{
		Workers:  1,
		MaxHops:  1,
		CacheDir: dir,
		SynthFn: func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
			calls.Add(1)
			return DefaultSynthFn(pair, opts)
		},
		ServeValidate: func(src, out *ir.Module) error {
			if failures.Add(1) == 1 {
				return errors.New("injected divergence")
			}
			return nil
		},
	})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	out, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	if err != nil || out == nil {
		t.Fatalf("translate after quarantine: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("SynthFn ran %d times, want 2 (original + post-quarantine)", got)
	}
	st := svc.Stats()
	if st.Quarantined != 1 || st.Cache.Quarantined != 1 {
		t.Fatalf("quarantine not counted: service=%d cache=%d", st.Quarantined, st.Cache.Quarantined)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "quarantine", "siro-*.json"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantined artifacts on disk = %v (err=%v), want 1", quarantined, err)
	}
	// The replacement artifact was re-persisted at the content address.
	if _, err := os.Stat(svc.cache.ArtifactPath(version.Pair{Source: version.V12_0, Target: version.V3_6})); err != nil {
		t.Fatalf("fresh artifact missing: %v", err)
	}
}

// A translator that still diverges after quarantine and resynthesis is
// never served: the request fails Validation.
func TestServeValidationNeverServesWrongOutput(t *testing.T) {
	svc := New(Config{
		Workers: 1,
		MaxHops: 1,
		ServeValidate: func(src, out *ir.Module) error {
			return errors.New("always diverges")
		},
	})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	out, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m)
	if out != nil {
		t.Fatal("diverging translation was served")
	}
	if !errors.Is(err, failure.Validation) || !strings.Contains(err.Error(), "still diverges") {
		t.Fatalf("err = %v, want persistent-divergence Validation failure", err)
	}
}

// Open breakers show up in /v1/stats' snapshot and heal after their
// cooldown.
func TestBreakerStateInStats(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	svc := New(Config{
		Workers:         1,
		MaxHops:         1,
		BreakerCooldown: 50 * time.Millisecond,
		SynthFn: func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
			if fail.Load() {
				return nil, errors.New("injected synthesis failure")
			}
			return DefaultSynthFn(pair, opts)
		},
	})
	defer svc.Close()

	m := corpus.Tests(version.V12_0)[0].Module
	if _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); err == nil {
		t.Fatal("poisoned synthesis succeeded")
	}
	if st := svc.Stats(); st.Breakers["12.0->3.6"] != "open" {
		t.Fatalf("breaker snapshot = %v, want 12.0->3.6 open", st.Breakers)
	}
	fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Translate(context.Background(), version.V12_0, version.V3_6, m); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.Stats(); len(st.Breakers) != 0 {
		t.Fatalf("healed breaker still reported: %v", st.Breakers)
	}
}

// Satellite status matrix: shed → 429, draining → 503, both with a
// Retry-After header and the budget class in the body.
func TestTranslateRejectionStatusMatrix(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var calls atomic.Int32
	release := releaseOnce(gate)
	svc := New(Config{Workers: 1, QueueDepth: 1, MaxHops: 1, SynthFn: gatedSynth(started, gate, &calls)})
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close() // waits for in-flight requests, so release runs first
	defer release()

	req := TranslateRequest{Source: "12.0", Target: "3.6", IR: sourceText(t, version.V12_0)}
	bg := make(chan struct{}, 2)
	for i := 0; i < 2; i++ { // occupy the worker, then the queue slot
		go func() { postTranslate(t, srv.URL, req); bg <- struct{}{} }()
		if i == 0 {
			<-started
		} else {
			waitFor(t, func() bool { return len(svc.jobs) == 1 })
		}
	}
	checkRejection(t, srv.URL, req, http.StatusTooManyRequests)

	release()
	<-bg
	<-bg
	svc.Close()
	checkRejection(t, srv.URL, req, http.StatusServiceUnavailable)
}

// checkRejection posts req and asserts the rejection status, a usable
// Retry-After header, and the budget class in the body.
func checkRejection(t *testing.T, url string, req TranslateRequest, wantStatus int) {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("status %d without a usable Retry-After (%q)", resp.StatusCode, ra)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("rejection body: %v", err)
	}
	if eresp.Class != failure.Budget.Error() {
		t.Fatalf("rejection class = %q, want %q", eresp.Class, failure.Budget.Error())
	}
	if want := failure.ExitCode(failure.Wrapf(failure.Budget, "x")); eresp.ExitCode != want {
		t.Fatalf("rejection exit code = %d, want %d", eresp.ExitCode, want)
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
