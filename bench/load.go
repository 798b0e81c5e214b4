package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/version"
)

// requestTimeout bounds one request; a request that runs out counts as
// an error.
const requestTimeout = 60 * time.Second

// client sends the benchmark's requests over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// translateJSON posts a pre-encoded request to the JSON surface and
// returns the translated IR.
func (c *client) translateJSON(ctx context.Context, reqBody []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/translate", bytes.NewReader(reqBody))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	payload, _, err := c.do(req)
	if err != nil {
		return "", err
	}
	var resp struct {
		IR string `json:"ir"`
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	return resp.IR, nil
}

// translateStream posts raw IR with ?stream=1 and chunked transfer
// encoding (unknown length), so sirod streams every body regardless of
// its size, and returns the streamed output.
func (c *client) translateStream(ctx context.Context, src, tgt version.V, body string) (string, error) {
	url := fmt.Sprintf("%s/v1/translate?stream=1&source=%s&target=%s", c.base, src, tgt)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, struct{ io.Reader }{strings.NewReader(body)})
	if err != nil {
		return "", err
	}
	req.ContentLength = -1
	req.Header.Set("Content-Type", "text/plain")
	payload, trailer, err := c.do(req)
	if err != nil {
		return "", err
	}
	if st := trailer.Get("X-Siro-Status"); st != "ok" {
		return "", fmt.Errorf("stream trailer status %q: %s %s", st, trailer.Get("X-Siro-Failure-Class"), trailer.Get("X-Siro-Error"))
	}
	return string(payload), nil
}

func (c *client) do(req *http.Request) ([]byte, http.Header, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body) // trailers arrive after the body drains
	if err != nil {
		return nil, nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, payload)
	}
	return payload, resp.Trailer, nil
}

// send performs one request for entry e on the workload's surface and
// hands the output to the gate. It reports whether the request
// succeeded; errors are counted by the caller.
func send(ctx context.Context, c *client, e *entry, stream bool, g *gate) bool {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var out string
	var err error
	if stream {
		out, err = c.translateStream(ctx, e.src, e.tgt, e.body)
	} else {
		out, err = c.translateJSON(ctx, e.jsonReq)
	}
	if err != nil {
		g.fail(e.name, err)
		return false
	}
	g.observe(e.name, out)
	return true
}

// openResult is one open-loop phase: per-request latency from the due
// time, and how late the generator dispatched each request.
type openResult struct {
	latency []time.Duration
	late    []time.Duration
	errors  int
}

// openLoop dispatches n requests at their due offsets, whatever the
// state of earlier ones, onto conns workers. Latency runs from the due
// time, so a stall also charges the requests queued behind it.
func openLoop(n, conns int, due func(i int) time.Duration, do func(i int) bool) openResult {
	type job struct {
		i   int
		due time.Time
	}
	res := openResult{latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	queue := make(chan job, n) // sized to the number of sends: the pacer never blocks
	var errs atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if !do(j.i) {
					errs.Add(1)
				}
				res.latency[j.i] = time.Since(j.due)
			}
		}()
	}
	// The pacer sleeps in nanosleep on its own thread: time.Sleep rounds
	// a sub-millisecond wait up to the next millisecond when the process
	// is idle, which made the generator ~0.5ms late at the median.
	runtime.LockOSThread()
	start := time.Now()
	for i := range n {
		at := start.Add(due(i))
		for d := time.Until(at); d > 0; d = time.Until(at) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR or an early wake: the loop sleeps again
		}
		res.late[i] = time.Since(at)
		queue <- job{i: i, due: at}
	}
	runtime.UnlockOSThread()
	close(queue)
	wg.Wait()
	res.errors = int(errs.Load())
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	rps       float64 // completions per second in the timed window
	attempted int
	errors    int
}

// closedLoop keeps conns requests in flight back to back, cycling
// through the request indexes, and counts the completions in one timed
// window after an untimed warm-up.
func closedLoop(n, conns int, warmup, window time.Duration, do func(i int) bool) closedResult {
	var next, done, errs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)-1) % n
				if !do(i) {
					errs.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	time.Sleep(warmup)
	c0, t0 := done.Load(), time.Now()
	time.Sleep(window)
	rps := float64(done.Load()-c0) / time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	return closedResult{rps: rps, attempted: int(done.Load()), errors: int(errs.Load())}
}

// daemonCounters is what the benchmark reads back from the daemon
// after a workload: the service's own view of the traffic.
type daemonCounters struct {
	QueueWaitUs  float64 `json:"queue_wait_us"`
	CacheHitRate float64 `json:"cache_hit_ratio"`
	InstsPerReq  float64 `json:"insts_per_req"`
	EmitRatio    float64 `json:"emit_ratio"`
	MultiHop     int64   `json:"multi_hop"`
	Requests     int64   `json:"requests"`
}

// scrapeDaemon reads /metrics and /v1/stats.
func scrapeDaemon(ctx context.Context, c *client) (daemonCounters, error) {
	var out daemonCounters
	var st service.Stats
	if err := getJSON(ctx, c.hc, c.base+"/v1/stats", &st); err != nil {
		return out, err
	}
	text, err := get(ctx, c.hc, c.base+"/metrics")
	if err != nil {
		return out, err
	}
	m := parseMetrics(string(text))
	if n := m["siro_queue_wait_seconds_count"]; n > 0 {
		out.QueueWaitUs = m["siro_queue_wait_seconds_sum"] / n * 1e6
	}
	if st.Cache.Lookups > 0 {
		out.CacheHitRate = float64(st.Cache.MemoryHits) / float64(st.Cache.Lookups)
	}
	src := m["siro_translated_instructions_total"]
	if st.Completed > 0 {
		out.InstsPerReq = src / float64(st.Completed)
	}
	if src > 0 {
		out.EmitRatio = m["siro_emitted_instructions_total"] / src
	}
	out.MultiHop, out.Requests = st.MultiHop, st.Requests
	return out, nil
}

// parseMetrics reads unlabeled samples of a Prometheus text exposition.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var f float64
		if _, err := fmt.Sscan(val, &f); err == nil {
			out[name] = f
		}
	}
	return out
}
