package tenant

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// unknownTenant is the accounting bucket for requests that never
// authenticated: the key (if any) is the one thing that must not be
// used as a label.
const unknownTenant = "unknown"

// GateStats is one tenant's gateway-side slice: what the front door
// admitted and refused before the service ever saw the request.
type GateStats struct {
	Admitted      int64 `json:"admitted"`
	OK            int64 `json:"ok"`
	Errors        int64 `json:"errors"`
	RejectedAuth  int64 `json:"rejected_auth,omitempty"`
	RejectedRate  int64 `json:"rejected_rate,omitempty"`
	RejectedQuota int64 `json:"rejected_quota,omitempty"`
	Inflight      int64 `json:"inflight,omitempty"`
}

// GatewayConfig tunes the gateway.
type GatewayConfig struct {
	// Registry authenticates keys (required).
	Registry *Registry
	// Metrics receives the per-tenant instruments; nil leaves them
	// unregistered (Stats still counts).
	Metrics *obs.Registry
	// Exempt lists path prefixes that bypass authentication entirely
	// (probes and scrapes). Defaults to /healthz, /readyz, /metrics,
	// /debug/pprof/.
	Exempt []string
	// Logf receives operational one-liners (reloads, auth storm
	// summaries); nil discards. Keys are never passed to it.
	Logf func(format string, args ...any)
}

// Gateway is the identity-aware HTTP front door: it authenticates the
// API key, applies the tenant's rate limit and in-flight cap, tags the
// request context with the tenant id, and accounts the outcome — then
// hands the request to the wrapped service handler. Rejections use the
// same JSON error shape as the service itself, so clients see one
// taxonomy whether the front door or the back end refused them.
type Gateway struct {
	cfg    GatewayConfig
	exempt []string

	mu  sync.Mutex
	met map[string]*gateMetrics
}

// gateMetrics pre-binds one tenant's instruments. They are the
// gateway's only counts: Stats reads them, and with
// GatewayConfig.Metrics set /metrics exports them.
type gateMetrics struct {
	admitted      *obs.Counter // no series: Stats only
	reqOK, reqErr *obs.Counter
	rejAuth       *obs.Counter
	rejRate       *obs.Counter
	rejQuota      *obs.Counter
	inflight      *obs.Gauge
}

// NewGateway builds a gateway over the registry.
func NewGateway(cfg GatewayConfig) *Gateway {
	exempt := cfg.Exempt
	if exempt == nil {
		exempt = []string{"/healthz", "/readyz", "/metrics", "/debug/pprof/"}
	}
	return &Gateway{
		cfg:    cfg,
		exempt: exempt,
		met:    map[string]*gateMetrics{},
	}
}

// Registry exposes the registry (hot-reload wiring).
func (g *Gateway) Registry() *Registry { return g.cfg.Registry }

// Stats snapshots the per-tenant gateway counters. Outcomes are read
// before Inflight and Inflight before Admitted, the reverse of the
// order a request updates them, so OK+Errors+Inflight never exceeds
// Admitted in a snapshot.
func (g *Gateway) Stats() map[string]GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]GateStats, len(g.met))
	for id, m := range g.met {
		st := GateStats{
			OK:            m.reqOK.Value(),
			Errors:        m.reqErr.Value(),
			RejectedAuth:  m.rejAuth.Value(),
			RejectedRate:  m.rejRate.Value(),
			RejectedQuota: m.rejQuota.Value(),
		}
		st.Inflight = m.inflight.Value()
		st.Admitted = m.admitted.Value()
		out[id] = st
	}
	return out
}

// tenantMet returns (binding on first use) a tenant's instruments.
// Without a registry they stay unregistered, so Stats still counts.
func (g *Gateway) tenantMet(id string) *gateMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.met[id]
	if m == nil {
		m = &gateMetrics{
			admitted: new(obs.Counter),
			reqOK:    new(obs.Counter),
			reqErr:   new(obs.Counter),
			rejAuth:  new(obs.Counter),
			rejRate:  new(obs.Counter),
			rejQuota: new(obs.Counter),
			inflight: new(obs.Gauge),
		}
		if reg := g.cfg.Metrics; reg != nil {
			const reqHelp = "Gateway requests by tenant and outcome."
			const rejHelp = "Gateway rejections by tenant and reason."
			m.reqOK = reg.Counter("siro_tenant_requests_total", reqHelp, "tenant", id, "outcome", "ok")
			m.reqErr = reg.Counter("siro_tenant_requests_total", reqHelp, "tenant", id, "outcome", "error")
			m.rejAuth = reg.Counter("siro_tenant_rejections_total", rejHelp, "tenant", id, "reason", "auth")
			m.rejRate = reg.Counter("siro_tenant_rejections_total", rejHelp, "tenant", id, "reason", "rate")
			m.rejQuota = reg.Counter("siro_tenant_rejections_total", rejHelp, "tenant", id, "reason", "quota")
			m.inflight = reg.Gauge("siro_tenant_inflight", "In-flight gateway requests by tenant.", "tenant", id)
		}
		g.met[id] = m
	}
	return m
}

// Key extraction: `Authorization: Bearer <key>` wins, `X-Api-Key`
// is the curl-friendly fallback.
func requestKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-Api-Key"))
}

// statusWriter captures the response status for outcome accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Wrap puts the gateway in front of next. Exempt paths pass through
// untouched; everything else must authenticate.
func (g *Gateway) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, p := range g.exempt {
			if r.URL.Path == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(r.URL.Path, p)) {
				next.ServeHTTP(w, r)
				return
			}
		}
		grant, err := g.cfg.Registry.Authenticate(requestKey(r))
		if err != nil {
			g.tenantMet(unknownTenant).rejAuth.Inc()
			writeGateError(w, http.StatusUnauthorized, err)
			return
		}
		id := grant.ID()
		m := g.tenantMet(id)
		if err := grant.TakeToken(time.Now()); err != nil {
			m.rejRate.Inc()
			writeGateError(w, http.StatusTooManyRequests, err)
			return
		}
		if err := grant.AcquireInflight(); err != nil {
			m.rejQuota.Inc()
			writeGateError(w, http.StatusTooManyRequests, err)
			return
		}
		defer grant.Release()
		m.admitted.Inc()
		m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(WithIdentity(r.Context(), id)))
		m.inflight.Add(-1)
		if sw.status < http.StatusBadRequest {
			m.reqOK.Inc()
		} else {
			m.reqErr.Inc()
		}
	})
}

// writeGateError mirrors the service's error body — {"error", "class",
// "exit_code"} — so a gateway refusal and a service refusal are
// indistinguishable in shape, and adds Retry-After on 429s exactly as
// the service does on its own rejections.
func writeGateError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		after := time.Second
		if d, ok := resilience.RetryAfterHint(err); ok {
			after = d
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((after+time.Second-1)/time.Second)))
	}
	class := ""
	if c := failure.ClassOf(err); c != nil {
		class = c.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"error":     err.Error(),
		"class":     class,
		"exit_code": failure.ExitCode(err),
	})
}
