// Command siro synthesizes IR translators for version pairs, the
// Table 3 workflow of the paper, and translates one input in bounded
// memory. The translation daemon is cmd/sirod; the traffic-replay load
// driver is cmd/siroload.
//
//	siro -src 12.0 -tgt 3.6        synthesize one pair and print stats
//	siro -all                      synthesize all ten Table 3 pairs
//	siro -src 12.0 -tgt 3.6 -emit  also print the generated translator code
//	siro -src 12.0 -tgt 3.6 -save FILE   also write the translator artifact (one pair only)
//	siro -src 12.0 -tgt 3.6 -cache DIR   reuse/persist the translator cache
//	siro -warm-matrix -cache DIR   synthesize every version pair into the cache
//	siro -stream -src 12.0 -tgt 3.6 < big.ll > big-3.6.ll   bounded-memory translation
//
// -stream translates textual IR one function at a time: peak memory is
// O(largest function), not O(module), so modules far larger than RAM
// pass through. The output is byte-identical to the batch pipeline's.
//
// With -cache, translators come from the content-addressed cache in
// DIR (keyed by version pair and API-registry fingerprint) instead of
// being re-synthesized, and fresh synthesis results are persisted
// there for the next run — the paper's synthesize-once economics.
//
// Exit status encodes the failure class: 0 success, 2 usage, 3 parse
// error, 4 synthesis failure, 5 validation failure, 6 budget exhausted,
// 7 unsupported construct, 1 anything else.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/version"
)

func main() {
	srcFlag := flag.String("src", "", "source IR version (e.g. 12.0)")
	tgtFlag := flag.String("tgt", "", "target IR version (e.g. 3.6)")
	all := flag.Bool("all", false, "synthesize all ten Table 3 pairs")
	emit := flag.Bool("emit", false, "print the synthesized translator code")
	save := flag.String("save", "", "write the synthesized translator artifact (JSON) to this file (one pair only: not with -all)")
	cacheDir := flag.String("cache", "", "translator cache directory: load cached artifacts instead of re-synthesizing, persist fresh ones")
	cacheMax := flag.Int64("cache-max-bytes", 0, "on-disk artifact budget with -cache: past it the least-recently-hit artifacts are GC'd (0: unbounded)")
	warmMatrix := flag.Bool("warm-matrix", false, "synthesize the full version-pair matrix into -cache, nearest pairs first, then exit (Ctrl-C stops cleanly)")
	synthWorkers := flag.Int("synth-workers", 0, "parallelism inside each synthesis run: candidate generation and validation workers (0: serial; output is byte-identical at any setting)")
	stream := flag.Bool("stream", false, "translate textual IR function-at-a-time in bounded memory (requires -src and -tgt; reads -in, writes -out)")
	inFile := flag.String("in", "", "with -stream: read source IR from this file (default stdin)")
	outFile := flag.String("out", "", "with -stream: write translated IR to this file (default stdout)")
	partial := flag.Bool("partial", false, "with -stream: drop unsupported constructs (reported on stderr) instead of failing")
	flag.Parse()

	if *stream {
		runStream(*srcFlag, *tgtFlag, *inFile, *outFile, *partial, *cacheDir, *cacheMax, *synthWorkers)
		return
	}
	if *warmMatrix {
		runWarmMatrix(*cacheDir, *cacheMax, *synthWorkers)
		return
	}

	var pairs []version.Pair
	switch {
	case *all && *save != "":
		// Every pair would overwrite the same file, leaving only the
		// last one's artifact.
		fmt.Fprintln(os.Stderr, "siro: -save writes one pair's artifact; use -src and -tgt, not -all")
		os.Exit(2)
	case *all:
		pairs = version.Table3Pairs
	case *srcFlag != "" && *tgtFlag != "":
		src, err := version.Parse(*srcFlag)
		if err != nil {
			fatal(err)
		}
		tgt, err := version.Parse(*tgtFlag)
		if err != nil {
			fatal(err)
		}
		pairs = []version.Pair{{Source: src, Target: tgt}}
	default:
		flag.Usage()
		os.Exit(2)
	}

	synthOpts := synth.Options{Workers: *synthWorkers}
	cache := service.NewCache(*cacheDir, 0, synthOpts)
	cache.SetMaxBytes(*cacheMax)
	// Cross-pair accelerators, shared across the run the same way the
	// service shares them: one generation cache, one hints registry, one
	// cost model (persisted beside the artifact cache when -cache is
	// set). A -all run synthesizes ten related pairs, so the sharing is
	// where most of its speedup comes from.
	gen := synth.NewGenCache()
	hints := synth.NewHintsRegistry()
	var cost *synth.CostModel
	costPath := ""
	if *cacheDir != "" {
		costPath = filepath.Join(*cacheDir, "siro-costmodel.json")
		cost = synth.LoadCostModel(costPath)
	} else {
		cost = synth.NewCostModel()
	}
	fmt.Println("No.  Pair          #Common  #New  #AtomicTrans(LOC)  #InstTrans(LOC)  Time")
	for i, p := range pairs {
		start := time.Now()
		// Route through the content-addressed cache: a prior run's
		// artifact (same registry fingerprint) skips synthesis. With no
		// -cache the cache is memory-only and this is a plain synthesis.
		res, origin, err := cache.GetResult(context.Background(), p, func() (*synth.Result, error) {
			opts := synthOpts
			opts.GenCache = gen
			opts.Cost = cost
			opts.Hints = hints.Nearest(p)
			s := synth.New(p.Source, p.Target, opts)
			out, err := s.Run(corpus.Tests(p.Source))
			if err != nil {
				return nil, err
			}
			hints.Store(out.Hints(opts))
			if costPath != "" {
				_ = cost.Save(costPath)
			}
			return out, nil
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		common := len(ir.CommonOpcodes(p.Source, p.Target))
		newOps := len(ir.NewOpcodes(p.Source, p.Target))
		atomicLOC := synth.CountLOC(res.RenderCandidates())
		instLOC := synth.CountLOC(res.RenderAll())
		note := ""
		if *cacheDir != "" {
			note = " [" + origin.String() + "]"
		}
		fmt.Printf("%-4d %-13s %7d %5d %18d %16d  %v%s\n",
			i+1, p, common, newOps, atomicLOC, instLOC, time.Since(start).Round(time.Millisecond), note)
		for _, w := range res.Warnings {
			fmt.Println("  warning:", w)
		}
		if *emit {
			fmt.Println(res.RenderAll())
		}
		if *save != "" {
			blob, err := res.Export()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*save, blob, 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("artifact written to", *save)
		}
	}
}

// runWarmMatrix pre-synthesizes every ordered version pair into the
// cache, nearest (cheapest, most-likely-requested) pairs first — the
// offline equivalent of sirod's -auto-warm. Interruption is clean: the
// pairs already warmed stay persisted and a rerun skips them by cache
// hit.
func runWarmMatrix(cacheDir string, cacheMax int64, synthWorkers int) {
	svc := service.New(service.Config{CacheDir: cacheDir, CacheMaxBytes: cacheMax,
		Synth: synth.Options{Workers: synthWorkers},
	})
	defer svc.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	total := len(svc.MatrixPairs())
	i := 0
	start := time.Now()
	n, err := svc.WarmMatrix(ctx, func(p version.Pair, perr error) {
		i++
		if perr != nil {
			fmt.Printf("%3d/%d  %s->%s  FAILED: %v\n", i, total, p.Source, p.Target, perr)
			return
		}
		fmt.Printf("%3d/%d  %s->%s  ok\n", i, total, p.Source, p.Target)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "siro: warm-matrix stopped after %d pairs: %v\n", n, err)
		os.Exit(failure.ExitCode(err))
	}
	fmt.Printf("warmed %d pairs in %v (cache %q)\n", n, time.Since(start).Round(time.Millisecond), cacheDir)
}

// runStream is the one-shot bounded-memory pipeline: look the
// translator up (or synthesize it once), then stream -in to -out one
// function at a time. Nothing module-sized is ever resident.
func runStream(srcs, tgts, inFile, outFile string, partial bool, cacheDir string, cacheMax int64, synthWorkers int) {
	if srcs == "" || tgts == "" {
		fmt.Fprintln(os.Stderr, "siro: -stream requires -src and -tgt (auto-detection would read the whole input)")
		os.Exit(2)
	}
	src, err := version.Parse(srcs)
	if err != nil {
		fatal(err)
	}
	tgt, err := version.Parse(tgts)
	if err != nil {
		fatal(err)
	}
	p := version.Pair{Source: src, Target: tgt}
	opts := synth.Options{Workers: synthWorkers}
	cache := service.NewCache(cacheDir, 0, opts)
	cache.SetMaxBytes(cacheMax)
	tr, _, err := cache.Get(context.Background(), p, func() (*synth.Result, error) { return service.DefaultSynthFn(p, opts) })
	if err != nil {
		fatal(fmt.Errorf("%s: %w", p, err))
	}
	in := io.Reader(os.Stdin)
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	bw := bufio.NewWriter(out)
	if partial {
		sites, serr := tr.TranslateStreamPartial(in, bw)
		err = serr
		for _, site := range sites {
			fmt.Fprintf(os.Stderr, "siro: dropped unsupported %s in @%s\n", site.Op, site.Func)
		}
	} else {
		err = tr.TranslateStream(in, bw)
	}
	if err != nil {
		fatal(err)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "siro:", err)
	os.Exit(failure.ExitCode(err))
}
