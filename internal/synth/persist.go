package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/typegraph"
	"repro/internal/version"
)

// The persisted form of a synthesis result: enough to reconstruct the
// completed instruction translators without re-running validation. The
// atomic-translator bodies are stored as their structural keys and
// re-materialized against a deterministic regeneration of the candidate
// space, so the artifact stays small and version-checked — the deployed
// translator the paper ships after the one-off synthesis run.
//
// Artifacts are byte-deterministic: covered-sets are sorted, map keys
// are marshalled in sorted order by encoding/json, and the case order
// of each instruction translator is itself deterministic (the greedy
// cover of complete.go breaks ties by atomic ID). Determinism is what
// makes the artifact content-addressable — the translator cache of
// internal/service hashes (source, target, fingerprint) and trusts that
// equal keys mean equal bytes.

type persistedCase struct {
	Sigma   map[string]string `json:"sigma,omitempty"`
	Covered []string          `json:"covered"`
	Atomic  string            `json:"atomic"` // structural key
}

type persistedTranslator struct {
	Kind  string          `json:"kind"`
	Cases []persistedCase `json:"cases"`
}

type persisted struct {
	Source      string                `json:"source"`
	Target      string                `json:"target"`
	Fingerprint string                `json:"fingerprint,omitempty"`
	Translators []persistedTranslator `json:"translators"`
}

// Fingerprint digests the API-registry surface a src→tgt translator is
// synthesized against: every getter, builder, operand-translator and
// predicate signature, plus the candidate-generation bounds that shape
// the search space the structural keys resolve in. Two runs see the
// same fingerprint iff Import would re-materialize their artifacts
// against the same candidate space, so the fingerprint is the cache key
// of the content-addressed translator cache (internal/service) and the
// staleness check of Import. Library overrides in opts (the chaos seam)
// change the fingerprint, so poisoned-registry artifacts never collide
// with canonical ones.
//
// The canonical fingerprint (no overrides) is memoized per (pair, Gen):
// irlib registries are pure functions of version, so the digest is too,
// and a cache hit must not pay to rebuild and re-hash them. Override
// libraries are caller-owned and mutable, so they are re-hashed on every
// call and never read or write the memo.
func Fingerprint(src, tgt version.V, opts Options) string {
	if opts.Getters != nil || opts.Builders != nil {
		return fingerprint(src, tgt, opts)
	}
	k := fingerprintKey{src: src, tgt: tgt, gen: opts.Gen}
	if fp, ok := canonicalFingerprints.Load(k); ok {
		return fp.(string)
	}
	fp := fingerprint(src, tgt, opts)
	canonicalFingerprints.Store(k, fp)
	return fp
}

type fingerprintKey struct {
	src, tgt version.V
	gen      typegraph.Options
}

// canonicalFingerprints memoizes Fingerprint for canonical libraries:
// fingerprintKey → hex digest. It grows by one entry per (pair, Gen)
// ever requested.
var canonicalFingerprints sync.Map

// fingerprint computes the registry digest Fingerprint documents.
func fingerprint(src, tgt version.V, opts Options) string {
	getters := opts.Getters
	if getters == nil {
		getters = irlib.Getters(src)
	}
	builders := opts.Builders
	if builders == nil {
		builders = irlib.Builders(tgt)
	}
	h := sha256.New()
	io.WriteString(h, "siro-registry-v1\n")
	io.WriteString(h, src.String()+"->"+tgt.String()+"\n")
	gen := opts.Gen
	fmt.Fprintf(h, "gen %d %d %d\n", gen.MaxTermsPerTok, gen.MaxCandidates, gen.MaxTermSize)
	for _, a := range getters.APIs {
		io.WriteString(h, "G "+a.Kind.String()+" "+a.String()+"\n")
	}
	for _, a := range builders.APIs {
		io.WriteString(h, "B "+a.Kind.String()+" "+a.String()+"\n")
	}
	for _, a := range irlib.XlateAPIs() {
		io.WriteString(h, "X "+a.String()+"\n")
	}
	for _, p := range irlib.Predicates(src) {
		io.WriteString(h, "P "+p.Kind.String()+" "+p.Name+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Export serializes the completed instruction translators of a result.
// The output is byte-deterministic for a given synthesis outcome.
func (r *Result) Export() ([]byte, error) {
	return r.ExportWithOptions(Options{})
}

// ExportWithOptions is Export with the options the result was
// synthesized under, so the embedded registry fingerprint matches what
// Import will regenerate.
func (r *Result) ExportWithOptions(opts Options) ([]byte, error) {
	return json.MarshalIndent(r.persistedForm(opts), "", "  ")
}

// ExportTo streams the artifact JSON straight to w instead of
// materializing the whole blob — what the disk cache writes through, so
// persisting a large artifact costs an encoder buffer, not a second
// copy. The bytes are ExportWithOptions' plus json.Encoder's trailing
// newline, which Import is indifferent to.
func (r *Result) ExportTo(w io.Writer, opts Options) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.persistedForm(opts))
}

func (r *Result) persistedForm(opts Options) persisted {
	out := persisted{
		Source:      r.Pair.Source.String(),
		Target:      r.Pair.Target.String(),
		Fingerprint: Fingerprint(r.Pair.Source, r.Pair.Target, opts),
	}
	for _, op := range ir.OpcodesIn(r.Pair.Source) {
		tr, ok := r.Translators[op]
		if !ok {
			continue
		}
		pt := persistedTranslator{Kind: op.String()}
		for _, c := range tr.Cases {
			covered := append([]string(nil), c.Covered...)
			sort.Strings(covered)
			pt.Cases = append(pt.Cases, persistedCase{
				Sigma: c.Sigma, Covered: covered, Atomic: c.Atomic.Key(),
			})
		}
		out.Translators = append(out.Translators, pt)
	}
	return out
}

// Import reconstructs a Result from an exported artifact. The candidate
// space is regenerated deterministically for the recorded version pair
// and the stored structural keys are resolved against it; a key that no
// longer resolves (e.g. the API surface changed) is an error, which is
// the desired staleness check. Artifacts carrying a registry
// fingerprint are additionally rejected up front when the fingerprint
// no longer matches the current API surface.
func Import(data []byte, opts Options) (*Result, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("synth: import: %w", err)
	}
	src, err := version.Parse(p.Source)
	if err != nil {
		return nil, fmt.Errorf("synth: import: bad source version: %w", err)
	}
	tgt, err := version.Parse(p.Target)
	if err != nil {
		return nil, fmt.Errorf("synth: import: bad target version: %w", err)
	}
	if p.Fingerprint != "" {
		if now := Fingerprint(src, tgt, opts); now != p.Fingerprint {
			return nil, fmt.Errorf("synth: import: artifact fingerprint %.12s does not match the current %s API registry (%.12s): re-synthesize",
				p.Fingerprint, version.Pair{Source: src, Target: tgt}, now)
		}
	}
	getters := opts.Getters
	if getters == nil {
		getters = irlib.Getters(src)
	}
	builders := opts.Builders
	if builders == nil {
		builders = irlib.Builders(tgt)
	}
	xlate := irlib.XlateAPIs()

	res := &Result{
		Pair:        version.Pair{Source: src, Target: tgt},
		Candidates:  map[ir.Opcode][]*irlib.Atomic{},
		Translators: map[ir.Opcode]*InstTranslator{},
	}
	for _, pt := range p.Translators {
		op, ok := ir.OpcodeByName(pt.Kind)
		if !ok {
			return nil, fmt.Errorf("synth: import: unknown instruction kind %q", pt.Kind)
		}
		g := typegraph.Build(op, getters, builders, xlate)
		cands := g.Candidates(opts.Gen)
		typegraph.SortAtomics(cands)
		res.Candidates[op] = cands
		byKey := map[string]*irlib.Atomic{}
		for _, a := range cands {
			byKey[a.Key()] = a
		}
		tr := &InstTranslator{Kind: op}
		for _, pc := range pt.Cases {
			a, ok := byKey[pc.Atomic]
			if !ok {
				return nil, fmt.Errorf("synth: import: %s: atomic %q no longer exists in the %s API surface",
					pt.Kind, pc.Atomic, version.Pair{Source: src, Target: tgt})
			}
			sigma := pc.Sigma
			if sigma == nil {
				sigma = map[string]string{}
			}
			tr.Cases = append(tr.Cases, Case{Sigma: sigma, Covered: pc.Covered, Atomic: a})
		}
		res.Translators[op] = tr
	}
	return res, nil
}
