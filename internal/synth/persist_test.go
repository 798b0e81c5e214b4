package synth_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/synth"
	"repro/internal/version"
)

func exportPair(t *testing.T, p version.Pair, opts synth.Options) []byte {
	t.Helper()
	s := synth.New(p.Source, p.Target, opts)
	res, err := s.Run(corpus.Tests(p.Source))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.ExportWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// Artifacts must be byte-deterministic: the content-addressed cache
// derives identity from (pair, fingerprint) and relies on equal keys
// producing equal bytes across runs.
func TestExportByteDeterministic(t *testing.T) {
	p := version.Pair{Source: version.V12_0, Target: version.V3_6}
	a := exportPair(t, p, synth.Options{})
	b := exportPair(t, p, synth.Options{})
	if !bytes.Equal(a, b) {
		t.Fatalf("two synthesis runs exported different bytes:\n%s\n-- vs --\n%s", a, b)
	}
}

// Neighbor hints change what a synthesis costs, never what it exports:
// 13.0->3.6 exports the same bytes seeded by its nearest neighbor, by a
// farther one, and by none. A concurrent matrix sweep relies on this,
// since which neighbors are done when a pair starts depends on the
// schedule.
func TestHintsNeverChangeAnArtifact(t *testing.T) {
	hintsOf := func(src version.V) *synth.Hints {
		t.Helper()
		res, err := synth.New(src, version.V3_6, synth.Options{}).Run(corpus.Tests(src))
		if err != nil {
			t.Fatal(err)
		}
		return res.Hints(synth.Options{})
	}
	p := version.Pair{Source: version.V13_0, Target: version.V3_6}
	plain := exportPair(t, p, synth.Options{})
	seeded := 0
	for _, from := range []version.V{version.V12_0, version.V17_0} {
		opts := synth.Options{Hints: hintsOf(from)}
		res, err := synth.New(p.Source, p.Target, opts).Run(corpus.Tests(p.Source))
		if err != nil {
			t.Fatalf("hints of %s->3.6: %v", from, err)
		}
		seeded += res.Stats.NeighborSeeded
		blob, err := res.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, plain) {
			t.Errorf("hints of %s->3.6 changed the %s artifact", from, p)
		}
	}
	if seeded == 0 {
		t.Fatal("no hinted run seeded a box; the test compared three cold runs")
	}
}

// The exported covered-sets must be sorted — they are part of the
// hashed content.
func TestExportCoveredSorted(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	var p struct {
		Translators []struct {
			Kind  string `json:"kind"`
			Cases []struct {
				Covered []string `json:"covered"`
			} `json:"cases"`
		} `json:"translators"`
	}
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Translators) == 0 {
		t.Fatal("no translators exported")
	}
	for _, tr := range p.Translators {
		for _, c := range tr.Cases {
			for i := 1; i < len(c.Covered); i++ {
				if c.Covered[i-1] > c.Covered[i] {
					t.Fatalf("%s: covered set not sorted: %v", tr.Kind, c.Covered)
				}
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{})
	if again := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{}); again != base {
		t.Fatalf("fingerprint not stable: %s vs %s", base, again)
	}
	if other := synth.Fingerprint(version.V13_0, version.V3_6, synth.Options{}); other == base {
		t.Fatalf("different source version produced the same fingerprint")
	}
	// The generation bounds shape the candidate space Import regenerates,
	// so they must be part of the identity.
	bounded := synth.Options{}
	bounded.Gen.MaxCandidates = 16
	if other := synth.Fingerprint(version.V12_0, version.V3_6, bounded); other == base {
		t.Fatalf("different generation bounds produced the same fingerprint")
	}
}

// An artifact whose fingerprint no longer matches the live registry is
// stale and must be rejected before any key resolution is attempted.
func TestImportRejectsStaleFingerprint(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	tampered := []byte(strings.Replace(string(blob),
		synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{}),
		strings.Repeat("0", 64), 1))
	if bytes.Equal(tampered, blob) {
		t.Fatal("tampering had no effect; fingerprint missing from artifact?")
	}
	if _, err := synth.Import(tampered, synth.Options{}); err == nil {
		t.Fatal("import accepted a stale fingerprint")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A fingerprint-less artifact (pre-fingerprint format) still imports.
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "fingerprint")
	old, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Import(old, synth.Options{}); err != nil {
		t.Fatalf("legacy artifact without fingerprint rejected: %v", err)
	}
}

// Round trip: an imported artifact re-exports to the identical bytes.
func TestExportImportRoundTrip(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	res, err := synth.Import(blob, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("import→export round trip changed bytes")
	}
}
