// Command siro synthesizes IR translators for version pairs, the
// Table 3 workflow of the paper, and translates textual IR files
// between versions. Every mode runs on one in-process translation
// service, so it shares cmd/sirod's cache, artifacts and cross-pair
// synthesis accelerators. The translation daemon is cmd/sirod; the
// traffic-replay load driver is cmd/siroload.
//
//	siro -src 12.0 -tgt 3.6        synthesize one pair and print stats
//	siro -all                      synthesize all ten Table 3 pairs
//	siro -src 12.0 -tgt 3.6 -emit  also print the generated translator code
//	siro -src 12.0 -tgt 3.6 -save FILE   also write the translator artifact (one pair only)
//	siro -src 12.0 -tgt 3.6 -cache DIR   reuse/persist the translator cache
//	siro -warm-matrix -cache DIR   synthesize every version pair into the cache
//	siro -in big.ll -src 12.0 -tgt 3.6 -out big-3.6.ll   translate a file
//	siro -in - -src auto -tgt 3.6 < prog.ll > prog-3.6.ll   detect the source version
//
// -in translates a file (- reads stdin) to -out (default stdout). With
// an explicit -src it streams one function at a time: peak memory is
// O(largest function), not O(module), so modules far larger than RAM
// pass through. -src auto reads the whole input, detects its version
// (the newest reader that accepts it, named on stderr), and translates
// the same bytes. Either way the output is byte-identical to the batch
// pipeline's, and -out is replaced only when the whole translation
// succeeds. -partial drops unsupported constructs, reporting each on
// stderr, instead of failing.
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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/failure"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/version"
)

func main() {
	srcFlag := flag.String("src", "", "source IR version (e.g. 12.0); with -in, \"auto\" detects it")
	tgtFlag := flag.String("tgt", "", "target IR version (e.g. 3.6)")
	all := flag.Bool("all", false, "synthesize all ten Table 3 pairs")
	emit := flag.Bool("emit", false, "print the synthesized translator code")
	save := flag.String("save", "", "write the synthesized translator artifact (JSON) to this file (one pair only: not with -all)")
	cacheDir := flag.String("cache", "", "translator cache directory: load cached artifacts instead of re-synthesizing, persist fresh ones")
	cacheMax := flag.Int64("cache-max-bytes", 0, "on-disk artifact budget with -cache: past it the least-recently-hit artifacts are GC'd (0: unbounded)")
	warmMatrix := flag.Bool("warm-matrix", false, "synthesize the full version-pair matrix into -cache, nearest pairs first, up to GOMAXPROCS pairs at once, then exit (Ctrl-C stops cleanly)")
	inFile := flag.String("in", "", "translate this textual IR file (- for stdin) from -src to -tgt; streams in bounded memory unless -src is auto")
	outFile := flag.String("out", "", "with -in: write the translated IR to this file, replaced only on success (default stdout)")
	partial := flag.Bool("partial", false, "with -in: drop unsupported constructs (reported on stderr) instead of failing")
	flag.Parse()

	svc := service.New(service.Config{CacheDir: *cacheDir, CacheMaxBytes: *cacheMax})
	defer svc.Close()
	ctx := context.Background()

	var pairs []version.Pair
	switch {
	case *inFile != "":
		if *srcFlag == "" || *tgtFlag == "" {
			fmt.Fprintln(os.Stderr, "siro: -in requires -tgt and -src (a version, or auto to detect it)")
			os.Exit(2)
		}
		if err := translateFile(ctx, svc, *srcFlag, *tgtFlag, *inFile, *outFile, *partial); err != nil {
			fatal(err)
		}
		return
	case *warmMatrix:
		runWarmMatrix(svc, *cacheDir)
		return
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

	fmt.Println("No.  Pair          #Common  #New  #AtomicTrans(LOC)  #InstTrans(LOC)  Time")
	for i, p := range pairs {
		start := time.Now()
		// Warm goes through the content-addressed cache: a prior run's
		// artifact (same registry fingerprint) skips synthesis. With no
		// -cache the cache is memory-only and this is a plain synthesis.
		before := svc.Cache().Stats()
		if err := svc.Warm(ctx, p.Source, p.Target); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		res, _, err := svc.Cache().GetResult(ctx, p, nil)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		common := len(ir.CommonOpcodes(p.Source, p.Target))
		newOps := len(ir.NewOpcodes(p.Source, p.Target))
		atomicLOC := synth.CountLOC(res.RenderCandidates())
		instLOC := synth.CountLOC(res.RenderAll())
		note := ""
		if *cacheDir != "" {
			note = " [" + warmOrigin(before, svc.Cache().Stats()).String() + "]"
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

// warmOrigin names where a Warm found its translator, from the cache
// counters read around it.
func warmOrigin(before, after service.CacheStats) service.Origin {
	switch {
	case after.Synthesized > before.Synthesized:
		return service.OriginSynth
	case after.DiskHits > before.DiskHits:
		return service.OriginDisk
	}
	return service.OriginMemory
}

// runWarmMatrix pre-synthesizes every ordered version pair into the
// cache, nearest (cheapest, most-likely-requested) pairs first and
// several at once — the offline equivalent of sirod's -auto-warm. Lines
// print in completion order. Interruption is clean: the pairs already
// warmed stay persisted and a rerun skips them by cache hit.
func runWarmMatrix(svc *service.Service, cacheDir string) {
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

// translateFile is the -in mode: get the pair's translator from the
// service (synthesizing it once), then stream the input through it.
// Nothing module-sized is resident unless srcs is "auto", which must
// read the whole input to detect its version.
func translateFile(ctx context.Context, svc *service.Service, srcs, tgts, inFile, outFile string, partial bool) error {
	tgt, err := version.Parse(tgts)
	if err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if inFile != "-" {
		f, err := os.Open(inFile)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var src version.V
	if srcs == "auto" {
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		if _, src, err = irtext.Detect(string(data), svc.Versions()); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "siro: detected source version", src)
		in = bytes.NewReader(data)
	} else if src, err = version.Parse(srcs); err != nil {
		return err
	}
	p := version.Pair{Source: src, Target: tgt}
	if err := svc.Warm(ctx, src, tgt); err != nil {
		return fmt.Errorf("%s: %w", p, err)
	}
	tr, _, err := svc.Cache().Get(ctx, p, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", p, err)
	}
	return writeOutput(outFile, func(w io.Writer) error {
		if !partial {
			return tr.TranslateStream(in, w)
		}
		sites, err := tr.TranslateStreamPartial(in, w)
		for _, site := range sites {
			fmt.Fprintf(os.Stderr, "siro: dropped unsupported %s in @%s\n", site.Op, site.Func)
		}
		return err
	})
}

// writeOutput runs write against outFile ("" is stdout) through a
// buffer. A file is written as a temporary sibling that replaces
// outFile only once write, Flush and Close all succeed, so a failed
// translation never leaves a truncated outFile behind.
func writeOutput(outFile string, write func(io.Writer) error) error {
	if outFile == "" {
		bw := bufio.NewWriter(os.Stdout)
		if err := write(bw); err != nil {
			return err
		}
		return bw.Flush()
	}
	f, err := os.CreateTemp(filepath.Dir(outFile), "."+filepath.Base(outFile)+".*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), outFile)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "siro:", err)
	os.Exit(failure.ExitCode(err))
}
