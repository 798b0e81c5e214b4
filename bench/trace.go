package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/version"
)

// The traced run measures layers in-process. It serves the workload's
// requests one at a time through the service's own HTTP handler on a
// loopback listener, and after each request times the layers the
// request went through by calling each module's public entry point on
// the same input. The round trip, the handler and every synthesis call
// are nested spans; the layer calls are isolated spans under the
// handler. Two residuals are reported by name, so no cost hides between
// layers:
//
//	service.http_us     = round trip − handler
//	service.dispatch_us = handler − (codec + cache get + parse +
//	                      translate + write + synthesis)
//
// The sum gate fails the run if the isolated spans exceed the round
// trips they were carved from by more than sumGateTolerance: a layer
// counted twice. The layer accounting and the traced run itself are in
// layers.go.

// span is one timed interval. Times are nanoseconds since the trace
// began; Parent is 0 for a request's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Isolated bool   `json:"isolated,omitempty"` // timed in its own call, not inside its parent
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(req, parent int, name string, start, end time.Time, isolated bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Isolated: isolated})
	return id
}

// timed runs f and records it as an isolated span.
func (t *tracer) timed(req, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(req, parent, name, start, end, true)
	return end.Sub(start)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// synthCall is one call of the service's synthesis function.
type synthCall struct {
	pair       version.Pair
	start, end time.Time
	ok         bool
	stats      synth.Stats
	refined    int
}

// synthRecorder wraps service.DefaultSynthFn as the service's SynthFn
// and times every call.
type synthRecorder struct {
	mu    sync.Mutex
	calls []synthCall
}

func (r *synthRecorder) synth(pair version.Pair, opts synth.Options) (*synth.Result, error) {
	c := synthCall{pair: pair, start: time.Now()}
	res, err := service.DefaultSynthFn(pair, opts)
	c.end = time.Now()
	if err == nil {
		c.ok, c.stats = true, res.Stats
		for _, n := range res.Stats.RefinedPerKind {
			c.refined += n
		}
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
	return res, err
}

// take returns and forgets the calls recorded since the last take.
func (r *synthRecorder) take() []synthCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// timedHandler records the interval of the (one) request it serves.
type timedHandler struct {
	h          http.Handler
	mu         sync.Mutex
	start, end time.Time
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	t.mu.Lock()
	t.start, t.end = start, end
	t.mu.Unlock()
}

func (t *timedHandler) last() (time.Time, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start, t.end
}

// inproc is a service with the daemon's default configuration behind
// its HTTP handler on a loopback test server.
type inproc struct {
	svc     *service.Service
	handler *timedHandler
	srv     *httptest.Server
	client  *client
	synth   *synthRecorder
}

func newInproc() *inproc {
	rec := &synthRecorder{}
	// The daemon's flag defaults (cmd/sirod), with synthesis recorded.
	svc := service.New(service.Config{
		Workers:         4,
		QueueDepth:      64,
		JobTimeout:      2 * time.Minute,
		MaxHops:         3,
		MaxRetries:      2,
		BreakerFailures: 1,
		BreakerCooldown: 5 * time.Second,
		StreamMaxWait:   5 * time.Second,
		SynthFn:         rec.synth,
	})
	th := &timedHandler{h: service.NewHandler(svc, service.HandlerOpts{})}
	srv := httptest.NewServer(th)
	return &inproc{svc: svc, handler: th, srv: srv, client: newClient(srv.URL, 1), synth: rec}
}

func (p *inproc) close() {
	p.client.close()
	p.srv.Close()
	p.svc.Close()
}
