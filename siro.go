// Package siro is the public facade of the Siro reproduction: a program
// transformation framework that synthesizes translators between versions
// of a compiler IR (Zhang et al., "Siro: Empowering Version Compatibility
// in Intermediate Representations via Program Synthesis", ASPLOS 2024).
//
// Typical use: synthesize a translator for a version pair from the
// built-in test-case corpus, then translate textual IR between versions:
//
//	tr, report, err := siro.Synthesize(siro.V12_0, siro.V3_6, nil)
//	low, err := tr.TranslateText(highVersionIR)
//
// A tool that must accept IR of any version opens it through a Hub
// instead, which detects the version and normalizes the module to the
// tool's pivot version, synthesizing each pair's translator once:
//
//	hub := siro.NewHub(siro.V3_6)
//	m, detected, err := hub.Open(anyVersionIR)
//
// The facade re-exports the pieces a downstream user needs: the versioned
// parser and writer, the module model, the reference interpreter, the
// mini-C frontend used by the evaluation harnesses, and the value-flow
// analyzer clients. Hub and Service share one translator cache design
// (internal/service), and cmd/siro and cmd/sirod are built on Service.
package siro

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/corpus"
	"repro/internal/failure"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/service"
	"repro/internal/skeleton"
	"repro/internal/synth"
	"repro/internal/translator"
	"repro/internal/tvalid"
	"repro/internal/version"
)

// Failure taxonomy. Every error leaving this package is classified into
// exactly one of these sentinels; test with errors.Is and map to a
// process exit status with ExitCode. The innermost classification wins,
// so a parse failure inside a synthesis run still reads as ErrParse.
var (
	// ErrParse — malformed input: IR text, mini-C source, or a persisted
	// synthesis artifact.
	ErrParse error = failure.Parse
	// ErrSynthesis — the search could not produce a translator: no
	// candidates, contradictory tests, or no per-test winner.
	ErrSynthesis error = failure.Synthesis
	// ErrValidation — differential validation or output verification
	// failed: a source test missed its oracle, a translated module did
	// not verify, or the interpreter hit a fatal inconsistency.
	ErrValidation error = failure.Validation
	// ErrBudget — a resource bound was exhausted: interpreter step
	// budget, per-test enumeration bound, or test wall-clock deadline.
	ErrBudget error = failure.Budget
	// ErrUnsupported — a construct outside the synthesized translator's
	// coverage: an uncovered kind, an unseen sub-kind, or a module of
	// the wrong source version.
	ErrUnsupported error = failure.Unsupported
)

// ExitCode maps a classified error to a stable process exit status:
// 0 for nil, 3–7 for ErrParse, ErrSynthesis, ErrValidation, ErrBudget
// and ErrUnsupported respectively, 1 for unclassified errors (2 is left
// to the flag package's usage errors).
func ExitCode(err error) int { return failure.ExitCode(err) }

// UnsupportedSite is one construct a partial translation dropped (see
// Translator.TranslatePartial).
type UnsupportedSite = skeleton.UnsupportedSite

// guard converts a panic that escapes an internal layer into an
// ErrValidation-classified error, so no public entry point ever crashes
// the embedding process. Classified panics (ir.BuildError et al.) keep
// their message.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = failure.Wrapf(failure.Validation, "siro: internal panic: %v", r)
	}
}

// Version identifies one IR release.
type Version = version.V

// Re-exported version constants for the releases evaluated in the paper.
var (
	V3_0  = version.V3_0
	V3_6  = version.V3_6
	V4_0  = version.V4_0
	V5_0  = version.V5_0
	V12_0 = version.V12_0
	V13_0 = version.V13_0
	V14_0 = version.V14_0
	V15_0 = version.V15_0
	V17_0 = version.V17_0
)

// Table3Pairs are the ten version pairs of the paper's Table 3.
var Table3Pairs = version.Table3Pairs

// ParseVersion parses "12.0"-style version strings.
func ParseVersion(s string) (Version, error) { return version.Parse(s) }

// Module is an in-memory IR program.
type Module = ir.Module

// Translator converts modules between two IR versions.
type Translator = translator.Translator

// TestCase is one synthesis test case: an IR program whose main function
// returns the oracle constant.
type TestCase = synth.TestCase

// SynthOptions tunes the synthesis loop (see the paper's §4.4
// optimizations).
type SynthOptions = synth.Options

// SynthReport carries synthesis outcomes and statistics.
type SynthReport = synth.Result

// ExecResult is the outcome of executing a module.
type ExecResult = interp.Result

// BugReport is one static-analysis finding.
type BugReport = analysis.Report

// Synthesize builds an IR translator for the src→tgt version pair. When
// tests is nil the built-in 68-case corpus (§6.2) is used.
func Synthesize(src, tgt Version, tests []*TestCase) (*Translator, *SynthReport, error) {
	return SynthesizeWithOptions(src, tgt, tests, synth.Options{})
}

// SynthesizeWithOptions is Synthesize with explicit loop options.
func SynthesizeWithOptions(src, tgt Version, tests []*TestCase, opts SynthOptions) (tr *Translator, rep *SynthReport, err error) {
	defer guard(&err)
	if tests == nil {
		tests = corpus.Tests(src)
	}
	s := synth.New(src, tgt, opts)
	res, err := s.Run(tests)
	if err != nil {
		return nil, nil, err
	}
	return translator.FromResult(res), res, nil
}

// DefaultTests returns the built-in synthesis corpus instantiated at the
// given source version.
func DefaultTests(src Version) []*TestCase { return corpus.Tests(src) }

// ParseIR reads textual IR with the version-v reader.
func ParseIR(text string, v Version) (m *Module, err error) {
	defer guard(&err)
	return irtext.Parse(text, v)
}

// WriteIR serializes a module with its version's writer.
func WriteIR(m *Module) (s string, err error) {
	defer guard(&err)
	return irtext.NewWriter(m.Ver).WriteModule(m)
}

// ExecOptions tunes module execution (step budget, input bytes, extern
// functions).
type ExecOptions = interp.Options

// Execute runs a module's main function under the reference interpreter.
func Execute(m *Module, input []byte) (ExecResult, error) {
	return ExecuteWithOptions(m, ExecOptions{Input: input})
}

// ExecuteWithOptions is Execute with an explicit step budget and extern
// environment. Budget exhaustion is ErrBudget; runtime traps (null
// dereference, division by zero, …) are not errors — they come back in
// ExecResult.Crash.
func ExecuteWithOptions(m *Module, opts ExecOptions) (res ExecResult, err error) {
	defer guard(&err)
	return interp.Run(m, opts)
}

// CompileC compiles mini-C source with the compiler of version v.
func CompileC(name, src string, v Version) (m *Module, err error) {
	defer guard(&err)
	return cc.NewCompiler(v).Compile(name, src)
}

// AnalyzeModule runs the value-flow bug detectors (NPD/UAF/FDL/ML) over
// a module.
func AnalyzeModule(m *Module, project string) []BugReport {
	return analysis.Analyze(m, project)
}

// CompareReports matches two report sets the way Table 4 does, returning
// reports exclusive to each side and the shared set.
func CompareReports(translating, compiling []BugReport) analysis.CompareResult {
	return analysis.Compare(translating, compiling)
}

// Hub is the version-agnostic front door of §7's developer suggestions:
// it accepts textual IR of any supported version, detects the version,
// and normalizes the module to a pivot version through translators
// synthesized on first use. The translators live in a memory-only
// service cache, so concurrent Opens share one synthesis per pair and
// different pairs synthesize in parallel.
type Hub struct {
	// Pivot is the version every Open result is normalized to.
	Pivot Version

	cache *service.Cache
}

// NewHub returns a hub pivoted at v. A Hub must be made with NewHub.
func NewHub(v Version) *Hub {
	return &Hub{Pivot: v, cache: service.NewCache("", 0, synth.Options{})}
}

// DetectVersion parses text with each known reader, newest first, and
// returns the module plus the version whose reader accepted it. Text no
// reader accepts is ErrParse.
func (h *Hub) DetectVersion(text string) (*Module, Version, error) {
	return irtext.Detect(text, version.All)
}

// Translator returns the translator from src to the pivot, synthesizing
// it on first use.
func (h *Hub) Translator(src Version) (*Translator, error) {
	pair := version.Pair{Source: src, Target: h.Pivot}
	tr, _, err := h.cache.Get(context.TODO(), pair, func() (*synth.Result, error) {
		return service.DefaultSynthFn(pair, synth.Options{})
	})
	if err != nil {
		return nil, failure.Wrapf(failure.Synthesis, "siro: synthesizing %s: %w", pair, err)
	}
	return tr, nil
}

// Open accepts textual IR of any supported version and returns the
// module normalized to the pivot, along with the detected source
// version.
func (h *Hub) Open(text string) (*Module, Version, error) {
	m, v, err := h.DetectVersion(text)
	if err != nil || v == h.Pivot {
		return m, v, err
	}
	tr, err := h.Translator(v)
	if err != nil {
		return nil, v, err
	}
	out, err := tr.Translate(m)
	if err != nil {
		return nil, v, fmt.Errorf("siro: normalizing %s input: %w", v, err)
	}
	return out, v, nil
}

// CachedPairs reports which translators the hub has synthesized so far,
// sorted.
func (h *Hub) CachedPairs() []version.Pair { return h.cache.Pairs() }

// Service is the long-running translation service: a content-addressed
// translator cache (one synthesis per (source, target, API-registry
// fingerprint), deduplicated across concurrent requests and persisted
// on disk), a multi-hop version router for pairs with no direct
// translator, and a bounded worker pool with per-job deadlines. It is
// what cmd/sirod serves over HTTP; embed it directly for in-process
// use:
//
//	svc := siro.NewService(siro.ServiceConfig{CacheDir: dir})
//	defer svc.Close()
//	out, err := svc.Translate(ctx, siro.V12_0, siro.V3_6, m)
type Service = service.Service

// ServiceConfig tunes a Service (worker count, queue depth, per-job
// deadline, cache directory, routing bounds).
type ServiceConfig = service.Config

// ServiceStats is a snapshot of service counters.
type ServiceStats = service.Stats

// NewService starts a translation service; call Close to release its
// workers.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// ServiceHandler exposes a service over HTTP (the cmd/sirod API:
// POST /v1/translate, GET /v1/stats, GET /v1/versions, GET /healthz).
func ServiceHandler(s *Service) http.Handler { return service.Handler(s) }

// ValidationReport is the outcome of differential translation validation.
type ValidationReport = tvalid.Report

// ValidateTranslation co-executes a source module and its translation
// over randomized inputs and compares observable behaviour — a bounded,
// version-trap-proof alternative to formal translation validation
// (§4.3.3).
func ValidateTranslation(src, tgt *Module, trials int, seed int64) ValidationReport {
	return tvalid.Validate(src, tgt, tvalid.Options{Trials: trials, Seed: seed})
}
