package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// gateBody is the JSON error shape the gateway shares with the service.
type gateBody struct {
	Error    string `json:"error"`
	Class    string `json:"class"`
	ExitCode int    `json:"exit_code"`
}

func newTestGateway(t *testing.T, tenants []Tenant, next http.Handler) (*Gateway, *httptest.Server, *obs.Registry) {
	t.Helper()
	if next == nil {
		next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"ok":true}`)
		})
	}
	reg := obs.NewRegistry()
	gw := NewGateway(GatewayConfig{
		Registry: NewRegistry(tenants, Defaults{}),
		Metrics:  reg,
	})
	srv := httptest.NewServer(gw.Wrap(next))
	t.Cleanup(srv.Close)
	return gw, srv, reg
}

func get(t *testing.T, url, key string) (*http.Response, gateBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body gateBody
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &body)
	return resp, body
}

// Missing and unknown keys get the same typed 401: Auth class, exit
// code 8, no hint of which part was wrong, no echo of the key.
func TestGatewayUnauthorized(t *testing.T) {
	_, srv, _ := newTestGateway(t, twoTenants(), nil)
	for _, key := range []string{"", "wrong-key"} {
		resp, body := get(t, srv.URL+"/v1/stats", key)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if body.Class != "authentication failed" {
			t.Fatalf("class = %q", body.Class)
		}
		if body.ExitCode != 8 {
			t.Fatalf("exit_code = %d, want 8", body.ExitCode)
		}
		if key != "" && strings.Contains(body.Error, key) {
			t.Fatalf("401 body echoes the key: %q", body.Error)
		}
	}
}

// X-Api-Key works as the Bearer fallback; a valid key reaches the
// wrapped handler.
func TestGatewayAuthHeaders(t *testing.T) {
	_, srv, _ := newTestGateway(t, twoTenants(), nil)
	resp, _ := get(t, srv.URL+"/x", "key-acme")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Bearer auth: status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req.Header.Set("X-Api-Key", "key-bolt")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("X-Api-Key auth: status %d", resp2.StatusCode)
	}
}

// Probe endpoints bypass authentication; everything else requires it.
func TestGatewayExemptPaths(t *testing.T) {
	_, srv, _ := newTestGateway(t, twoTenants(), nil)
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/pprof/goroutine"} {
		resp, _ := get(t, srv.URL+path, "")
		if resp.StatusCode == http.StatusUnauthorized {
			t.Fatalf("exempt path %s demanded a key", path)
		}
	}
	resp, _ := get(t, srv.URL+"/v1/translate", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("non-exempt path admitted anonymously: %d", resp.StatusCode)
	}
}

// A drained rate bucket 429s with a usable Retry-After and a Budget
// class; the refill admits again.
func TestGatewayRateLimit429RetryAfter(t *testing.T) {
	_, srv, _ := newTestGateway(t, []Tenant{{ID: "a", Key: "k", RatePerSec: 1, Burst: 1}}, nil)
	resp, _ := get(t, srv.URL+"/x", "k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp, body := get(t, srv.URL+"/x", "k")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	if body.Class != "budget exhausted" {
		t.Fatalf("rate 429 class = %q, want budget exhausted", body.Class)
	}
}

// The in-flight cap 429s the excess request while earlier ones are
// still being served, and frees as they finish.
func TestGatewayInflightCap(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
	_, srv, _ := newTestGateway(t, []Tenant{{ID: "a", Key: "k", MaxInflight: 1}}, blocked)

	done := make(chan int, 1)
	go func() {
		resp, _ := get(t, srv.URL+"/x", "k")
		done <- resp.StatusCode
	}()
	<-entered // first request holds the only slot

	resp, _ := get(t, srv.URL+"/x", "k")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("inflight 429 without usable Retry-After (%q)", ra)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
}

// Key hot reload mid-flight: a request already past the front door
// finishes normally after its tenant's key rotates; the old key stops
// authenticating, the new one starts, all without restarting.
func TestGatewayHotReloadMidFlight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		io.WriteString(w, "ok")
	})
	gw, srv, _ := newTestGateway(t, []Tenant{{ID: "a", Key: "old-key"}}, slow)

	done := make(chan int, 1)
	go func() {
		resp, _ := get(t, srv.URL+"/x", "old-key")
		done <- resp.StatusCode
	}()
	<-entered // the request is in flight on the old key

	gw.Registry().Replace([]Tenant{{ID: "a", Key: "new-key"}})

	// New request on the old key: refused at once.
	resp, _ := get(t, srv.URL+"/x", "old-key")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("rotated-out key still authenticates: %d", resp.StatusCode)
	}
	// The in-flight request is not disturbed.
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request across reload: status %d", code)
	}
	// The new key works.
	resp, _ = get(t, srv.URL+"/x", "new-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rotated-in key refused: %d", resp.StatusCode)
	}
}

// Gateway accounting: admissions, outcomes and rejections land in the
// right tenant's slice and auth failures in "unknown". Stats reads the
// counters the registry exports, so it equals the tenant series at any
// moment, in flight included; with no registry it still counts. The
// tenant label reaches the registry but API keys never do.
func TestGatewayStatsAndMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{{"metrics", obs.NewRegistry()}, {"no_metrics", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			entered, release := make(chan struct{}, 1), make(chan struct{})
			next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/fail":
					http.Error(w, "boom", http.StatusInternalServerError)
				case "/block":
					entered <- struct{}{}
					<-release
				}
				io.WriteString(w, "ok")
			})
			gw := NewGateway(GatewayConfig{
				Registry: NewRegistry([]Tenant{
					{ID: "acme", Key: "key-acme", RatePerSec: 1, Burst: 2},
					{ID: "bolt", Key: "key-bolt", MaxInflight: 1},
				}, Defaults{}),
				Metrics: tc.reg,
			})
			srv := httptest.NewServer(gw.Wrap(next))
			defer srv.Close()
			released := false
			defer func() {
				if !released {
					close(release)
				}
			}()

			codes := []int{}
			for _, req := range []struct{ path, key string }{
				{"/x", "key-acme"},    // ok
				{"/fail", "key-acme"}, // error
				{"/x", "key-acme"},    // rate: the burst of 2 is spent
				{"/x", "nope"},        // 401
			} {
				resp, _ := get(t, srv.URL+req.path, req.key)
				codes = append(codes, resp.StatusCode)
			}
			if want := []int{200, 500, 429, 401}; !reflect.DeepEqual(codes, want) {
				t.Fatalf("statuses %v, want %v", codes, want)
			}
			done := make(chan int, 1)
			go func() {
				resp, _ := get(t, srv.URL+"/block", "key-bolt")
				done <- resp.StatusCode
			}()
			<-entered
			if resp, _ := get(t, srv.URL+"/x", "key-bolt"); resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("bolt over its in-flight cap: status %d, want 429", resp.StatusCode)
			}

			check := func(want map[string]GateStats) {
				t.Helper()
				got := gw.Stats()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Stats = %+v, want %+v", got, want)
				}
				if tc.reg == nil {
					return
				}
				var buf strings.Builder
				if err := tc.reg.WritePrometheus(&buf); err != nil {
					t.Fatal(err)
				}
				expo := buf.String()
				for id, st := range got {
					for _, line := range []string{
						fmt.Sprintf(`siro_tenant_requests_total{outcome="ok",tenant="%s"} %d`, id, st.OK),
						fmt.Sprintf(`siro_tenant_requests_total{outcome="error",tenant="%s"} %d`, id, st.Errors),
						fmt.Sprintf(`siro_tenant_rejections_total{reason="auth",tenant="%s"} %d`, id, st.RejectedAuth),
						fmt.Sprintf(`siro_tenant_rejections_total{reason="rate",tenant="%s"} %d`, id, st.RejectedRate),
						fmt.Sprintf(`siro_tenant_rejections_total{reason="quota",tenant="%s"} %d`, id, st.RejectedQuota),
						fmt.Sprintf(`siro_tenant_inflight{tenant="%s"} %d`, id, st.Inflight),
					} {
						if !strings.Contains(expo, line+"\n") {
							t.Errorf("exposition lacks %s\n%s", line, expo)
						}
					}
				}
				if strings.Contains(expo, "key-acme") || strings.Contains(expo, "key-bolt") {
					t.Error("exposition leaked an API key")
				}
			}
			acme := GateStats{Admitted: 2, OK: 1, Errors: 1, RejectedRate: 1}
			unknown := GateStats{RejectedAuth: 1}
			check(map[string]GateStats{
				"acme":    acme,
				"bolt":    {Admitted: 1, RejectedQuota: 1, Inflight: 1},
				"unknown": unknown,
			})
			close(release)
			released = true
			if code := <-done; code != http.StatusOK {
				t.Fatalf("blocked bolt request: status %d", code)
			}
			check(map[string]GateStats{
				"acme":    acme,
				"bolt":    {Admitted: 1, OK: 1, RejectedQuota: 1},
				"unknown": unknown,
			})
		})
	}
}
