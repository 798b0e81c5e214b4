// Package tenant is the multi-tenant front door of the translation
// service: API-key authentication, per-tenant token-bucket rate limits
// and concurrency quotas, a deficit-round-robin fair queue that keeps
// one tenant's batch flood from starving another's interactive
// traffic, and per-tenant accounting. It sits in front of
// internal/service (the Gateway wraps the service's HTTP handler; a
// Registry passed as service.Config.Tenants swaps the service's FIFO
// worker queue for a FairQueue) and turns the admission, shedding and
// breaker machinery underneath into an identity-aware service.
//
// Keys are secrets: they are compared in constant time
// (crypto/subtle), never logged, and never echoed in metrics, traces,
// or error bodies — only the tenant *id* travels.
package tenant

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/resilience"
)

// Tenant is one configured identity.
type Tenant struct {
	// ID names the tenant in metrics, stats, and logs.
	ID string `json:"id"`
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-Api-Key`. It is never logged.
	Key string `json:"key"`
	// Weight is the tenant's fair-queue share (default 1). Zero or
	// negative weights are rejected at load: a zero-weight tenant would
	// be admitted and then never scheduled — silent starvation by
	// configuration.
	Weight int `json:"weight,omitempty"`
	// RatePerSec is the request token-bucket refill rate; 0 inherits
	// the defaults, negative disables rate limiting for this tenant.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (0: max(2×rate, 1)).
	Burst float64 `json:"burst,omitempty"`
	// MaxInflight caps the tenant's concurrent in-flight HTTP requests;
	// 0 inherits the defaults, negative disables the cap.
	MaxInflight int `json:"max_inflight,omitempty"`
	// MaxJobs caps the tenant's concurrent (non-terminal) async batch
	// jobs; 0 inherits the defaults, negative disables the cap.
	MaxJobs int `json:"max_jobs,omitempty"`
}

// Defaults fill a Tenant's zero-valued quota fields — the `-default-quota`
// knob. Zero-valued defaults mean "unlimited".
type Defaults struct {
	RatePerSec  float64
	Burst       float64
	MaxInflight int
	MaxJobs     int
}

// withDefaults resolves the tenant's effective limits. The returned
// tenant has Weight >= 1 and rate/caps resolved to "<= 0 means
// unlimited".
func (t Tenant) withDefaults(d Defaults) Tenant {
	if t.Weight == 0 {
		t.Weight = 1
	}
	if t.RatePerSec == 0 {
		t.RatePerSec = d.RatePerSec
	}
	if t.RatePerSec < 0 {
		t.RatePerSec = 0 // explicit "unlimited"
	}
	if t.Burst == 0 {
		t.Burst = d.Burst
	}
	if t.Burst <= 0 && t.RatePerSec > 0 {
		t.Burst = 2 * t.RatePerSec
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	if t.MaxInflight == 0 {
		t.MaxInflight = d.MaxInflight
	}
	if t.MaxInflight < 0 {
		t.MaxInflight = 0
	}
	if t.MaxJobs == 0 {
		t.MaxJobs = d.MaxJobs
	}
	if t.MaxJobs < 0 {
		t.MaxJobs = 0
	}
	return t
}

// ParseConfig validates a tenants config. Every tenant needs a
// non-empty id and key; ids and keys must be unique; explicit weights
// must be positive (a zero-weight tenant would authenticate and then
// starve — that is a config bug, surfaced at load, not at traffic).
func ParseConfig(data []byte) ([]Tenant, error) {
	// The wire struct distinguishes an omitted weight (defaults to 1)
	// from an explicit "weight": 0 (rejected): the outer pointer field
	// shadows the embedded Tenant.Weight during decoding.
	var cf struct {
		Tenants []struct {
			Tenant
			Weight *int `json:"weight"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, failure.Wrapf(failure.Parse, "tenants config: %w", err)
	}
	if len(cf.Tenants) == 0 {
		return nil, failure.Wrapf(failure.Parse, "tenants config: no tenants defined")
	}
	ids := map[string]bool{}
	keys := map[string]bool{}
	out := make([]Tenant, 0, len(cf.Tenants))
	for i, w := range cf.Tenants {
		t := w.Tenant
		if t.ID == "" {
			return nil, failure.Wrapf(failure.Parse, "tenants config: tenant %d has no id", i)
		}
		if t.Key == "" {
			return nil, failure.Wrapf(failure.Parse, "tenants config: tenant %q has no key", t.ID)
		}
		if ids[t.ID] {
			return nil, failure.Wrapf(failure.Parse, "tenants config: duplicate tenant id %q", t.ID)
		}
		if keys[t.Key] {
			return nil, failure.Wrapf(failure.Parse, "tenants config: tenant %q reuses another tenant's key", t.ID)
		}
		if w.Weight != nil {
			if *w.Weight <= 0 {
				return nil, failure.Wrapf(failure.Parse, "tenants config: tenant %q has non-positive weight %d (a zero-weight tenant would never be scheduled)", t.ID, *w.Weight)
			}
			t.Weight = *w.Weight
		}
		ids[t.ID] = true
		keys[t.Key] = true
		out = append(out, t)
	}
	return out, nil
}

// LoadFile reads and validates a tenants config file.
func LoadFile(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, failure.Wrapf(failure.Parse, "tenants config: %w", err)
	}
	return ParseConfig(data)
}

// AuthError is the typed 401: the request carried no key, or a key no
// configured tenant owns. It is Auth-classed and deliberately does not
// say which — distinguishing "unknown key" from "missing key" leaks
// information to a prober.
type AuthError struct{ msg string }

func (e *AuthError) Error() string { return e.msg }

// Unwrap exposes the Auth failure class to errors.Is/failure.ClassOf.
func (e *AuthError) Unwrap() error { return failure.Auth }

func authError() error {
	return &AuthError{msg: failure.Auth.Error() + ": missing or unknown API key"}
}

// state is one tenant's runtime admission state. The bucket and the
// in-flight count survive hot reloads for tenants whose id persists,
// so a reload cannot be used to refill a drained bucket.
type state struct {
	mu       sync.Mutex
	t        Tenant
	bucket   bucket
	inflight int64
	jobs     int64
}

// Registry resolves API keys to tenants and owns per-tenant admission
// state. All methods are safe for concurrent use; Replace hot-swaps
// the tenant set (the SIGHUP path) without disturbing in-flight
// requests, which hold their tenant id, not a registry pointer.
type Registry struct {
	defaults Defaults

	mu   sync.RWMutex
	byID map[string]*state
	ids  []string // stable iteration order for Authenticate and Snapshot
}

// NewRegistry builds a registry over the given tenants.
func NewRegistry(tenants []Tenant, defaults Defaults) *Registry {
	r := &Registry{defaults: defaults, byID: map[string]*state{}}
	r.Replace(tenants)
	return r
}

// Replace atomically installs a new tenant set: new tenants start with
// a full bucket, retained tenants keep their bucket level and
// in-flight counts (their limits are updated in place), removed
// tenants vanish — their keys stop authenticating on the very next
// request while already-admitted work runs to completion.
func (r *Registry) Replace(tenants []Tenant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := map[string]*state{}
	ids := make([]string, 0, len(tenants))
	for _, t := range tenants {
		t = t.withDefaults(r.defaults)
		if old, ok := r.byID[t.ID]; ok {
			old.mu.Lock()
			old.t = t
			old.bucket.setRate(t.RatePerSec, t.Burst)
			old.mu.Unlock()
			next[t.ID] = old
		} else {
			st := &state{t: t}
			st.bucket.init(t.RatePerSec, t.Burst)
			next[t.ID] = st
		}
		ids = append(ids, t.ID)
	}
	sort.Strings(ids)
	r.byID = next
	r.ids = ids
}

// Len is the number of configured tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// Authenticate resolves an API key to its tenant. The comparison is
// constant-time per key and scans every configured tenant without an
// early exit, so response timing does not reveal whether (or where) a
// prefix matched. Unknown or empty keys return an Auth-classed error.
func (r *Registry) Authenticate(key string) (*Grant, error) {
	if key == "" {
		return nil, authError()
	}
	r.mu.RLock()
	var match *state
	kb := []byte(key)
	for _, id := range r.ids {
		st := r.byID[id]
		st.mu.Lock()
		tkey := st.t.Key
		st.mu.Unlock()
		if subtle.ConstantTimeCompare(kb, []byte(tkey)) == 1 {
			match = st
		}
	}
	r.mu.RUnlock()
	if match == nil {
		return nil, authError()
	}
	return &Grant{st: match}, nil
}

// Weight returns the tenant's fair-queue weight (1 for unknown ids and
// the anonymous tenant). A service built with this registry as
// service.Config.Tenants reads it on every scheduling turn, so a
// Replace re-weights queued tenants without a restart.
func (r *Registry) Weight(id string) int {
	if r == nil {
		return 1
	}
	r.mu.RLock()
	st := r.byID[id]
	r.mu.RUnlock()
	if st == nil {
		return 1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.t.Weight
}

// MaxJobs returns the tenant's concurrent async-job quota (0 =
// unlimited), the hook service.JobsConfig.JobQuota wants.
func (r *Registry) MaxJobs(id string) int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	st := r.byID[id]
	r.mu.RUnlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.t.MaxJobs
}

// Snapshot lists the configured tenants (ids ascending) with their
// effective limits. Keys are blanked: a snapshot is for display.
func (r *Registry) Snapshot() []Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Tenant, 0, len(r.ids))
	for _, id := range r.ids {
		st := r.byID[id]
		st.mu.Lock()
		t := st.t
		st.mu.Unlock()
		t.Key = ""
		out = append(out, t)
	}
	return out
}

// Grant is one authenticated request's handle on its tenant: quota
// checks happen through it, and Release returns the in-flight slot.
type Grant struct {
	st       *state
	acquired bool
}

// Tenant returns the granted tenant (copy).
func (g *Grant) Tenant() Tenant {
	g.st.mu.Lock()
	defer g.st.mu.Unlock()
	return g.st.t
}

// ID returns the granted tenant's id.
func (g *Grant) ID() string { return g.Tenant().ID }

// TakeToken spends one rate-limit token. A drained bucket returns a
// typed Quota rejection whose Retry-After is derived from the bucket's
// refill rate — the time until one token exists again.
func (g *Grant) TakeToken(now time.Time) error {
	g.st.mu.Lock()
	defer g.st.mu.Unlock()
	ok, retryAfter := g.st.bucket.take(now)
	if ok {
		return nil
	}
	return resilience.QuotaExceeded(retryAfter,
		"tenant %q: rate limit exceeded (%.3g req/s)", g.st.t.ID, g.st.t.RatePerSec)
}

// AcquireInflight claims an in-flight slot, or returns a typed Quota
// rejection when the tenant is already at its concurrency cap.
// Release must be called exactly once after a successful acquire.
func (g *Grant) AcquireInflight() error {
	g.st.mu.Lock()
	defer g.st.mu.Unlock()
	if max := int64(g.st.t.MaxInflight); max > 0 && g.st.inflight >= max {
		return resilience.QuotaExceeded(time.Second,
			"tenant %q: %d requests already in flight (cap %d)", g.st.t.ID, g.st.inflight, max)
	}
	g.st.inflight++
	g.acquired = true
	return nil
}

// Release returns the in-flight slot claimed by AcquireInflight.
func (g *Grant) Release() {
	if !g.acquired {
		return
	}
	g.acquired = false
	g.st.mu.Lock()
	g.st.inflight--
	g.st.mu.Unlock()
}

// Inflight reports the tenant's current in-flight count.
func (g *Grant) Inflight() int64 {
	g.st.mu.Lock()
	defer g.st.mu.Unlock()
	return g.st.inflight
}

type ctxKey struct{}

// WithIdentity tags the context with the authenticated tenant id; the
// service reads it for fair-queue scheduling and per-tenant
// accounting.
func WithIdentity(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// From returns the context's tenant id ("" for anonymous requests).
func From(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
