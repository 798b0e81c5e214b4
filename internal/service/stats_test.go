package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/tenant"
	"repro/internal/version"
)

// /v1/stats and /metrics read the same counters. These tests drive one
// known mix of traffic through the HTTP handler and pin the counts it
// must produce: exactly, in Stats, in every /metrics series that has a
// Stats field, and in Stats again with metrics switched off.

// knownTraffic is a service plus handlers set up for driveKnownTraffic:
// the direct pair 12.0→3.6 never synthesizes (so requests for it are
// routed through 10.0), synthesis of 10.0→12.0 waits on gate, and a
// gateway with tenants acme and bolt fronts a second handler.
type knownTraffic struct {
	svc     *Service
	gw      *tenant.Gateway
	anon    *httptest.Server // the bare handler: anonymous traffic
	gated   *httptest.Server // the gateway in front of the handler
	started chan struct{}    // receives when the gated synthesis begins
	release func()           // opens the gate (idempotent)
}

func newKnownTraffic(t *testing.T, cfg Config) *knownTraffic {
	t.Helper()
	refused := version.Pair{Source: version.V12_0, Target: version.V3_6}
	gatedPair := version.Pair{Source: version.V10_0, Target: version.V12_0}
	gate := make(chan struct{})
	k := &knownTraffic{started: make(chan struct{}, 1), release: releaseOnce(gate)}
	cfg.SynthFn = func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		switch pair {
		case refused:
			return nil, failure.Wrapf(failure.Synthesis, "test: no direct translator for %s", pair)
		case gatedPair:
			select {
			case k.started <- struct{}{}:
			default:
			}
			<-gate
		}
		return DefaultSynthFn(pair, opts)
	}
	// One worker and a per-tenant shed threshold of one job: while the
	// worker holds the gated synthesis, a tenant's second queued job is
	// shed.
	cfg.Workers, cfg.ShedAt, cfg.MaxRetries = 1, 1, 2
	cfg.Tenants = tenant.NewRegistry([]tenant.Tenant{{ID: "acme", Key: "key-acme"}, {ID: "bolt", Key: "key-bolt"}}, tenant.Defaults{})
	k.svc = New(cfg)
	t.Cleanup(k.svc.Close)
	k.gw = tenant.NewGateway(tenant.GatewayConfig{Registry: cfg.Tenants, Metrics: k.svc.Metrics()})
	k.anon = httptest.NewServer(Handler(k.svc))
	t.Cleanup(k.anon.Close)
	k.gated = httptest.NewServer(k.gw.Wrap(Handler(k.svc)))
	t.Cleanup(k.gated.Close)
	// Cleanups run last-in first-out: a failed test opens the gate
	// before the servers and the service wait on a parked request.
	t.Cleanup(k.release)
	return k
}

// post sends one /v1/translate request, as JSON or, with stream set,
// as a text body of unknown length (which always streams), and returns
// the status and the body.
func (k *knownTraffic) post(t *testing.T, srv *httptest.Server, key string, src, tgt version.V, text string, stream bool) (int, string) {
	var req *http.Request
	var err error
	if stream {
		url := srv.URL + "/v1/translate?source=" + src.String() + "&target=" + tgt.String()
		req, err = http.NewRequest(http.MethodPost, url, io.MultiReader(strings.NewReader(text)))
		if err == nil {
			req.Header.Set("Content-Type", "text/plain")
		}
	} else {
		var body []byte
		body, err = json.Marshal(TranslateRequest{Source: src.String(), Target: tgt.String(), IR: text})
		if err == nil {
			req, err = http.NewRequest(http.MethodPost, srv.URL+"/v1/translate", bytes.NewReader(body))
		}
	}
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, string(out)
}

// goroutinesIn counts the goroutines whose stack holds fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// driveKnownTraffic sends the known mix and returns the Stats it must
// produce. Values are chosen so that most counters differ, so a Stats
// field that reads the wrong counter shows.
func driveKnownTraffic(t *testing.T, k *knownTraffic) Stats {
	t.Helper()
	v3, v10, v12 := version.V3_6, version.V10_0, version.V12_0
	t12, t10 := corpusText(t, v12), corpusText(t, v10)
	other, err := irtext.NewWriter(v12).WriteModule(corpus.Tests(v12)[1].Module)
	if err != nil {
		t.Fatal(err)
	}
	const garbage = "this is not IR\n"
	expect := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	}

	// Anonymous: a synthesis, a memory hit, a multi-hop route (the
	// refused direct pair is retried twice) and a stream.
	code, _ := k.post(t, k.anon, "", v12, v10, t12, false)
	expect("first 12.0->10.0", code, http.StatusOK)
	code, _ = k.post(t, k.anon, "", v12, v10, t12, false)
	expect("second 12.0->10.0", code, http.StatusOK)
	code, _ = k.post(t, k.anon, "", v12, v3, t12, false)
	expect("multi-hop 12.0->3.6", code, http.StatusOK)
	code, out := k.post(t, k.anon, "", v12, v10, t12, true)
	expect("anonymous stream", code, http.StatusOK)

	// acme leads a flight on the gated pair; bolt and two anonymous
	// requests for the same input follow it. Then acme queues a second
	// job behind the busy worker, and four more are shed.
	var wg sync.WaitGroup
	send := func(srv *httptest.Server, key string, src, tgt version.V, text string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, body := k.post(t, srv, key, src, tgt, text, false); code != http.StatusOK {
				t.Errorf("%s %s->%s: status %d: %s", key, src, tgt, code, body)
			}
		}()
	}
	send(k.gated, "key-acme", v10, v12, t10)
	<-k.started
	send(k.gated, "key-bolt", v10, v12, t10)
	send(k.anon, "", v10, v12, t10)
	send(k.anon, "", v10, v12, t10)
	// The flight stays registered until the gate opens, so a follower
	// inside coalesced is certain to join it.
	waitFor(t, func() bool { return goroutinesIn("repro/internal/service.(*Service).coalesced") == 4 })
	send(k.gated, "key-acme", v12, v10, t12)
	waitFor(t, func() bool { return k.svc.fq.Depth("acme") == 1 })
	for i := 0; i < 4; i++ {
		code, _ := k.post(t, k.gated, "key-acme", v12, v10, other, false)
		expect("shed acme request", code, http.StatusTooManyRequests)
	}
	k.release()
	wg.Wait()

	// Tenant streams: bolt's succeeds, acme's fails to parse.
	code, _ = k.post(t, k.gated, "key-bolt", v12, v10, t12, true)
	expect("bolt stream", code, http.StatusOK)
	code, _ = k.post(t, k.gated, "key-acme", v12, v10, garbage, true)
	expect("acme garbage stream", code, http.StatusBadRequest)

	// The failed stream wrote the target module header before its
	// parse failed, and the byte counters count it.
	var header bytes.Buffer
	if err := irtext.NewWriter(v10).Stream(&header).Begin(irtext.NewStreamParser(strings.NewReader(garbage), v12).Module().Name); err != nil {
		t.Fatal(err)
	}
	return Stats{
		Requests:       15,
		Completed:      10, // 4 anonymous, the flight's leader and 3 followers, acme's queued job, bolt's stream
		Failed:         5,  // 4 shed, 1 parse
		MultiHop:       1,
		QueueHighWater: 2, // acme's queued job plus the one being shed
		Shed:           4,
		Retries:        2,
		Coalesced:      3,
		FailureClasses: map[string]int64{failure.Budget.Error(): 4, failure.Parse.Error(): 1},
		Stream: StreamStats{
			Requests: 3,
			Failed:   1,
			BytesIn:  int64(2*len(t12) + len(garbage)),
			BytesOut: int64(2*len(out) + header.Len()),
		},
		Tenants: map[string]TenantStats{
			"acme": {Requests: 7, Completed: 2, Failed: 5, Shed: 4, StreamedBytes: int64(len(garbage) + header.Len())},
			"bolt": {Requests: 2, Completed: 2, Coalesced: 1, StreamedBytes: int64(len(t12) + len(out))},
		},
		// 11 lookups: 4 for the multi-hop request (the refused direct
		// pair, then the route's final-edge probe of it, 12.0->10.0 and
		// 10.0->3.6) and one for every other request that reached the
		// cache. The two refused lookups have no outcome.
		Cache: CacheStats{Lookups: 11, MemoryHits: 6, Synthesized: 3},
	}
}

// counterFields clears the parts of a snapshot that are not counts of
// the known traffic: uptime, resident pairs and breaker state.
func counterFields(st Stats) Stats {
	st.Uptime, st.CachedPairs, st.Breakers = 0, nil, nil
	return st
}

// parseExposition maps each sample line of a Prometheus text
// exposition, name plus labels, to its value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("bad exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

func TestStatsAndMetricsCountTheSameTraffic(t *testing.T) {
	k := newKnownTraffic(t, Config{})
	want := driveKnownTraffic(t, k)
	st := k.svc.Stats()
	if got := counterFields(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats after the known traffic:\n got %+v\nwant %+v", got, want)
	}

	series := parseExposition(t, scrape(t, http.DefaultClient, k.anon.URL+"/metrics"))
	check := func(field string, got int64, key string) {
		t.Helper()
		v, ok := series[key]
		if !ok {
			t.Errorf("%s: /metrics has no series %s", field, key)
		} else if int64(v) != got {
			t.Errorf("%s = %d in Stats, %s = %v in /metrics", field, got, key, v)
		}
	}
	check("Completed", st.Completed, `siro_requests_total{outcome="ok"}`)
	check("Failed", st.Failed, `siro_requests_total{outcome="error"}`)
	check("MultiHop", st.MultiHop, `siro_multi_hop_requests_total`)
	check("Shed", st.Shed, `siro_shed_total`)
	check("Retries", st.Retries, `siro_retries_total`)
	check("Degraded", st.Degraded, `siro_degraded_total`)
	check("Quarantined", st.Quarantined, `siro_quarantined_total`)
	for _, c := range failure.Classes() {
		check("FailureClasses["+c.Error()+"]", st.FailureClasses[c.Error()], `siro_failures_total{class="`+c.Error()+`"}`)
	}
	check("FailureClasses[unclassified]", st.FailureClasses[unclassified], `siro_failures_total{class="unclassified"}`)
	check("Stream.BytesIn", st.Stream.BytesIn, `siro_streamed_bytes_total{direction="in"}`)
	check("Stream.BytesOut", st.Stream.BytesOut, `siro_streamed_bytes_total{direction="out"}`)
	for id, ts := range st.Tenants {
		check(id+".Completed", ts.Completed, `siro_tenant_translations_total{outcome="ok",tenant="`+id+`"}`)
		check(id+".Failed", ts.Failed, `siro_tenant_translations_total{outcome="error",tenant="`+id+`"}`)
		check(id+".Shed", ts.Shed, `siro_tenant_shed_total{tenant="`+id+`"}`)
		check(id+".Coalesced", ts.Coalesced, `siro_tenant_coalesced_total{tenant="`+id+`"}`)
		check(id+".QueueDepth", int64(ts.QueueDepth), `siro_tenant_queue_depth{tenant="`+id+`"}`)
	}
	c := st.Cache
	check("Cache.Lookups", c.Lookups, `siro_cache_lookups_total`)
	check("Cache.MemoryHits", c.MemoryHits, `siro_cache_events_total{event="memory_hit"}`)
	check("Cache.DiskHits", c.DiskHits, `siro_cache_events_total{event="disk_hit"}`)
	check("Cache.Synthesized", c.Synthesized, `siro_cache_events_total{event="synthesized"}`)
	check("Cache.Deduplicated", c.Deduplicated, `siro_cache_events_total{event="deduplicated"}`)
	check("Cache.Evictions", c.Evictions, `siro_cache_events_total{event="eviction"}`)
	check("Cache.StaleDropped", c.StaleDropped, `siro_cache_events_total{event="stale_dropped"}`)
	check("Cache.Quarantined", c.Quarantined, `siro_cache_events_total{event="quarantined"}`)
	check("Cache.GCEvictions", c.GCEvictions, `siro_cache_gc_evictions_total`)
}

// With metrics off there is no registry and no /metrics, but the same
// traffic gives the same Stats: the counters behind them still count.
func TestStatsCountWithMetricsOff(t *testing.T) {
	k := newKnownTraffic(t, Config{DisableMetrics: true})
	want := driveKnownTraffic(t, k)
	if got := counterFields(k.svc.Stats()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats with metrics off:\n got %+v\nwant %+v", got, want)
	}
	if reg := k.svc.Metrics(); reg != nil {
		t.Fatalf("Metrics() = %v with DisableMetrics, want nil", reg)
	}
	resp, err := http.Get(k.anon.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics off: status %d, want 404", resp.StatusCode)
	}
	if got := k.gw.Stats()["acme"]; got.Admitted != 7 || got.OK != 2 || got.Errors != 5 {
		t.Fatalf("gateway stats for acme with metrics off = %+v, want admitted 7 / ok 2 / errors 5", got)
	}
}

// The cache keeps counting when it belongs to no service.
func TestStandaloneCacheCounts(t *testing.T) {
	p := version.Pair{Source: version.V12_0, Target: version.V3_6}
	c := NewCache("", 4, synth.Options{})
	synthesize := func() (*synth.Result, error) { return DefaultSynthFn(p, synth.Options{}) }
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(context.Background(), p, synthesize); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Stats(), (CacheStats{Lookups: 2, MemoryHits: 1, Synthesized: 1}); got != want {
		t.Fatalf("standalone cache stats = %+v, want %+v", got, want)
	}
}
