// Command bench is the repository's one benchmark: four workloads run
// against a real sirod over loopback HTTP, each printing its end-to-end
// metrics, or with -trace 1 the per-layer breakdown measured in-process.
// Every served output goes through a correctness gate, and a wrong
// output fails the run.
//
// From the repository root, run it through the wrapper, which builds
// sirod and this command into .bench_build/:
//
//	bash bench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": n, "metrics": {"p50_ms": {"value": v, "unit": "ms"}, ...}}
//
// See bench/README.md for the metric and workload catalogue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sirod    string
	outdir   string
	commit   string
	conns    int
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "hot", "workload to run: hot, bulk, stream, cold-matrix, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs and schedule")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: measure the per-layer breakdown in-process instead of the end-to-end metrics")
	flag.StringVar(&cfg.sirod, "sirod", ".bench_build/bin/sirod", "sirod binary to launch")
	flag.StringVar(&cfg.outdir, "outdir", "", "directory for the full run report (and, with -trace 1, the spans); empty: none")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision to record in the report")
	summarizeSets := flag.Bool("summarize", false, "instead of running, read the run reports in each directory argument as one set and print every metric's median and spread per workload")
	flag.Parse()
	if *summarizeSets {
		if err := summarize(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	// Load comes from this one process with at most nproc threads and
	// connections.
	cfg.conns = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.conns)

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		r, err := run(context.Background(), c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := r.emit(c.outdir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		ok = ok && r.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload in the configured mode.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	m, err := scenario.Load()
	if err != nil {
		return nil, err
	}
	r := newReport(cfg)
	switch {
	case cfg.trace:
		err = runTraced(ctx, cfg, w, m, r)
	case w.mix == nil:
		err = runColdMatrix(ctx, cfg, w, m, r)
	default:
		err = runServed(ctx, cfg, w, m, r)
	}
	return r, err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta records what a run measured on, so results from different
// machines or commits are never compared by accident.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	PlanDigest string `json:"plan_digest"`
	Started    string `json:"started"`
}

// report is one run's full result. Metrics holds what the final output
// line carries; Extra holds everything else a reader of the run needs
// (error ratio, wrong outputs, sample counts, generator lateness).
type report struct {
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]any    `json:"extra"`
	spans     []span
}

func newReport(cfg config) *report {
	return &report{
		Meta: meta{
			Workload:   cfg.workload,
			Seed:       cfg.seed,
			Seconds:    cfg.seconds,
			Trace:      cfg.trace,
			Nproc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Conns:      cfg.conns,
			GoVersion:  runtime.Version(),
			Commit:     cfg.commit,
			Started:    time.Now().UTC().Format(time.RFC3339),
		},
		Metrics: map[string]metric{},
		Extra:   map[string]any{},
	}
}

// finish records the request accounting and the gate's verdict.
func (r *report) finish(attempted, errs, wrong int, reasons []string) {
	r.Attempted = attempted
	r.Failed = errs + wrong
	r.Correct = wrong == 0
	r.Extra["error_ratio"] = float64(errs) / float64(max(attempted, 1))
	r.Extra["wrong_outputs"] = wrong
	if len(reasons) > 0 {
		r.Extra["failures"] = reasons
	}
}

// endToEnd fills the end-to-end metrics.
func (r *report) endToEnd(setupS float64, lat latencySummary, rps, rssMB float64) {
	r.Metrics["setup_s"] = metric{setupS, "s"}
	r.Metrics["p50_ms"] = metric{lat.P50Ms, "ms"}
	r.Metrics["p90_ms"] = metric{lat.P90Ms, "ms"}
	r.Metrics["throughput_rps"] = metric{rps, "1/s"}
	r.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}
	r.Extra["latency"] = lat
}

// emit prints every metric by name and unit, writes the full report
// (and spans) when an output directory is set, and prints the result
// object as the last line of standard output.
func (r *report) emit(outdir string) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %s %.6g %s\n", r.Meta.Workload, name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	extra, err := json.Marshal(r.Extra)
	if err != nil {
		return err
	}
	fmt.Printf("%s extra %s\n", r.Meta.Workload, extra)
	if outdir != "" {
		if err := r.write(outdir); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// write stores the report, and any spans, under outdir.
func (r *report) write(outdir string) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.Meta.Trace {
		mode = "trace"
	}
	base := filepath.Join(outdir, fmt.Sprintf("%s-%s-seed%d", r.Meta.Workload, mode, r.Meta.Seed))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(r.spans) == 0 {
		return nil
	}
	return writeSpans(base+".spans.jsonl", r.spans)
}

// stat is one metric's distribution over a set of runs. Spread is the
// interquartile distance over the median, the statistic a run-to-run
// bound is checked against.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// runSet is one directory of run reports.
type runSet struct {
	Dir  string    `json:"dir"`
	Runs []*report `json:"runs"`
	// Summary is keyed by "<workload>/<e2e|trace>", then metric name.
	Summary map[string]map[string]stat `json:"summary"`
}

// summarize reads every run report (*.json, spans excluded) in each
// directory and writes the sets, with their summaries, as JSON.
func summarize(w io.Writer, dirs []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("-summarize needs at least one directory of run reports")
	}
	var sets []runSet
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		set := runSet{Dir: dir, Summary: map[string]map[string]stat{}}
		values := map[string]map[string][]float64{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			var r report
			if err := json.Unmarshal(data, &r); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			set.Runs = append(set.Runs, &r)
			mode := "e2e"
			if r.Meta.Trace {
				mode = "trace"
			}
			key := r.Meta.Workload + "/" + mode
			if values[key] == nil {
				values[key] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[key][name] = append(values[key][name], m.Value)
			}
		}
		for key, byMetric := range values {
			set.Summary[key] = map[string]stat{}
			for name, xs := range byMetric {
				q1, q3 := quartiles(xs)
				set.Summary[key][name] = stat{N: len(xs), Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs)}
			}
		}
		sets = append(sets, set)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Sets []runSet `json:"sets"`
	}{sets})
}
