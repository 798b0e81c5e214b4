// Package loadcli is the driver behind cmd/siroload: compile a seeded
// schedule from the embedded scenario corpus, replay it against a live
// daemon (or an in-process one it spins up), and write
// LOAD_summary.json.
//
// It lives beside internal/scenario instead of inside it so the
// scenario package itself never depends on internal/service — the
// corpus must stay importable from the service's own tests.
package loadcli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// Run executes the load CLI with the given arguments (not including the
// program name) and returns the process exit code: 0 on a clean replay,
// 1 when the replay saw unclassified responses or failed outright, 2 on
// usage errors.
func Run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siroload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "", "base URL of a live sirod (empty: run an in-process daemon)")
	mixName := fs.String("mix", "smoke", "traffic mix: smoke, steady or stress")
	seed := fs.Int64("seed", 1, "schedule seed; same seed, same schedule, byte for byte")
	rate := fs.Float64("rate", 20, "open-loop request rate per second")
	seconds := fs.Int("seconds", 10, "schedule length in seconds (request count = rate*seconds)")
	count := fs.Int("n", 0, "explicit request count (overrides -seconds)")
	conc := fs.Int("concurrency", 16, "closed-loop cap on in-flight requests")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request timeout")
	out := fs.String("out", "LOAD_summary.json", "summary JSON path (empty: skip the file)")
	workers := fs.Int("workers", 8, "in-process daemon: translation workers")
	cacheDir := fs.String("cache", "", "in-process daemon: translator cache directory")
	printSchedule := fs.Bool("print-schedule", false, "print the compiled schedule JSON and exit without replaying")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	m, err := scenario.Load()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	mix, err := scenario.MixByName(*mixName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	n := *count
	if n <= 0 {
		n = int(float64(*seconds) * *rate)
	}
	sched, err := scenario.Compile(m, mix, *seed, n, *rate)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *printSchedule {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sched); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	base := *target
	if base == "" {
		// In-process daemon: a real service behind a loopback listener,
		// with the batch API mounted so ModeBatch items have a target.
		svc := service.New(service.Config{
			Workers:    *workers,
			QueueDepth: 4 * *workers * 8,
			JobTimeout: *timeout,
			CacheDir:   *cacheDir,
		})
		defer svc.Close()
		jobsDir, err := os.MkdirTemp("", "siroload-jobs-")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer os.RemoveAll(jobsDir)
		jobs, _, err := service.NewJobs(svc, service.JobsConfig{
			Dir:     jobsDir,
			Runners: 4,
			NoSync:  true,
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer jobs.Close()
		srv := httptest.NewServer(service.NewHandler(svc, service.HandlerOpts{Jobs: jobs}))
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(stderr, "siroload: in-process daemon at %s\n", base)
	}

	if *target != "" && hasBatch(sched) {
		// Fail fast with a usage error instead of letting every batch
		// item land as an unclassified 404: sirod only mounts the async
		// job API when it has a journal to make the jobs durable.
		if ok, err := jobAPIAvailable(base, *timeout); err != nil {
			fmt.Fprintf(stderr, "siroload: probing %s: %v\n", base, err)
			return 1
		} else if !ok {
			fmt.Fprintf(stderr, "siroload: mix %q includes async batch jobs but %s does not expose /v1/jobs — start sirod with -journal DIR, or drop -target to replay against an in-process daemon\n",
				sched.Mix, base)
			return 2
		}
	}

	fmt.Fprintf(stderr, "siroload: replaying %d requests (mix %s, seed %d, %.3g req/s, digest %.12s...)\n",
		len(sched.Items), sched.Mix, sched.Seed, sched.RatePerSec, sched.Digest())
	start := time.Now()
	results, err := scenario.Replay(context.Background(), m, sched, scenario.ReplayOptions{
		BaseURL:        base,
		Concurrency:    *conc,
		RequestTimeout: *timeout,
		Logf:           func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	sum := scenario.Summarize(sched, results, time.Since(start))

	printSummary(stdout, sum)
	if *out != "" {
		if err := sum.WriteFile(*out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "siroload: wrote %s\n", *out)
	}
	if sum.Unclassified > 0 {
		fmt.Fprintf(stderr, "siroload: %d unclassified responses — the response taxonomy leaked\n", sum.Unclassified)
		return 1
	}
	return 0
}

// hasBatch reports whether any scheduled item replays through the
// async job API.
func hasBatch(s *scenario.Schedule) bool {
	for i := range s.Items {
		if s.Items[i].Mode == scenario.ModeBatch {
			return true
		}
	}
	return false
}

// jobAPIAvailable probes GET /v1/jobs on the target. A 404 means the
// daemon runs without a journal and the async API is unmounted; any
// other answer (including auth and shed rejections) proves the route
// exists.
func jobAPIAvailable(base string, timeout time.Duration) (bool, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode != http.StatusNotFound, nil
}

// printSummary renders the per-class table humans read; the JSON file
// is the machine artifact.
func printSummary(w io.Writer, s *Summarized) {
	fmt.Fprintf(w, "mix %s seed %d: %d requests in %.1fs (%.1f req/s)\n",
		s.Mix, s.Seed, s.Requests, s.DurationSec, s.ThroughputRPS)
	classes := make([]string, 0, len(s.PerClass))
	for c := range s.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "%-12s %6s %9s %9s %9s  %s\n", "class", "count", "p50(ms)", "p95(ms)", "p99(ms)", "outcomes")
	for _, c := range classes {
		cs := s.PerClass[c]
		fmt.Fprintf(w, "%-12s %6d %9.2f %9.2f %9.2f  %v\n", c, cs.Count, cs.P50Ms, cs.P95Ms, cs.P99Ms, cs.Outcomes)
	}
	if len(s.Failures) > 0 {
		fmt.Fprintf(w, "typed failures: %v\n", s.Failures)
	}
	fmt.Fprintf(w, "unclassified: %d\n", s.Unclassified)
}

// Summarized aliases the scenario summary for printSummary's signature.
type Summarized = scenario.Summary
