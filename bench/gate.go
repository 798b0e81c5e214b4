package main

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/interp"
	"repro/internal/irtext"
	"repro/internal/tvalid"
	"repro/internal/version"
)

// gate is the correctness gate. During load it only hashes outputs, so
// checking costs the timed path one hash per response: every response
// for an entry must be byte-identical to the first. After load, each
// distinct output is checked once, outside timing, by differential
// execution against its source (or, for cold-matrix, by running it).
type gate struct {
	seed maphash.Seed

	mu     sync.Mutex
	first  map[string]string // entry → first output
	sums   map[string]uint64 // entry → hash of the first output
	wrong  map[string]string // entry → why its output is wrong
	errors map[string]int    // error message → count (non-200, trailer, transport)
}

func newGate() *gate {
	return &gate{
		seed:   maphash.MakeSeed(),
		first:  map[string]string{},
		sums:   map[string]uint64{},
		wrong:  map[string]string{},
		errors: map[string]int{},
	}
}

// observe records one served output for the named entry.
func (g *gate) observe(name, out string) {
	sum := maphash.String(g.seed, out)
	g.mu.Lock()
	defer g.mu.Unlock()
	prev, seen := g.sums[name]
	switch {
	case !seen:
		g.sums[name], g.first[name] = sum, out
	case prev != sum:
		g.markLocked(name, "repeated responses differ")
	}
}

// fail records a request that got no output.
func (g *gate) fail(name string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.errors[fmt.Sprintf("%s: %v", name, err)]++
}

func (g *gate) mark(name, why string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.markLocked(name, why)
}

func (g *gate) markLocked(name, why string) {
	if _, dup := g.wrong[name]; !dup {
		g.wrong[name] = why
	}
}

// output returns the first output served for the entry.
func (g *gate) output(name string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out, ok := g.first[name]
	return out, ok
}

// validate checks every entry's first output: it must reparse at the
// target version and behave like its source under tvalid's differential
// execution on the interpreter.
func (g *gate) validate(entries map[string]*entry) {
	for _, name := range g.names() {
		e := entries[name]
		out, _ := g.output(name)
		if why := checkTranslation(e.body, out, e.src, e.tgt); why != "" {
			g.mark(name, why)
		}
	}
}

// checkTranslation returns why out is not a correct translation of src
// from version s to version t, or "" when it is.
func checkTranslation(src, out string, s, t version.V) string {
	srcMod, err := irtext.Parse(src, s)
	if err != nil {
		return fmt.Sprintf("source does not parse at %s: %v", s, err)
	}
	outMod, err := irtext.Parse(out, t)
	if err != nil {
		return fmt.Sprintf("output does not reparse at %s: %v", t, err)
	}
	if rep := tvalid.Validate(srcMod, outMod, tvalid.Options{Seed: 1}); !rep.OK() {
		return rep.String()
	}
	return ""
}

// validateRet42 checks cold-matrix outputs: each must reparse at its
// pair's target and run to return 42.
func (g *gate) validateRet42(pairs map[string]version.Pair) {
	for _, name := range g.names() {
		out, _ := g.output(name)
		if why := checkRet42(out, pairs[name].Target); why != "" {
			g.mark(name, why)
		}
	}
}

func checkRet42(out string, t version.V) string {
	m, err := irtext.Parse(out, t)
	if err != nil {
		return fmt.Sprintf("output does not reparse at %s: %v", t, err)
	}
	res, err := interp.Run(m, interp.Options{})
	if err != nil {
		return fmt.Sprintf("output does not run: %v", err)
	}
	if res.Crashed() || res.Ret != 42 {
		return fmt.Sprintf("output returned %d (crash %q), want 42", res.Ret, res.Crash)
	}
	return ""
}

func (g *gate) names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.first))
	for name := range g.first {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// result summarizes the gate: how many entries served a wrong output,
// and a few reasons (wrong outputs and failed requests) for the report.
func (g *gate) result() (wrong int, reasons []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, why := range g.wrong {
		reasons = append(reasons, fmt.Sprintf("wrong output %s: %.300s", name, why))
	}
	for msg, n := range g.errors {
		reasons = append(reasons, fmt.Sprintf("%d× %.300s", n, msg))
	}
	sort.Strings(reasons)
	if len(reasons) > 20 {
		reasons = reasons[:20]
	}
	return len(g.wrong), reasons
}
