package synth

import (
	"sync"
	"testing"

	"repro/internal/irlib"
	"repro/internal/typegraph"
	"repro/internal/version"
)

// nonDefaultGen is a generation bound no other test uses, so the memo
// tests see cold misses for it.
var nonDefaultGen = typegraph.Options{MaxTermsPerTok: 48, MaxCandidates: 512, MaxTermSize: 6}

// The memo is sound: for every ordered version pair, at the zero and a
// non-default generation bound, the memoized digest equals the uncached
// one on the first call (miss) and on the second (hit).
func TestFingerprintMemoMatchesUncached(t *testing.T) {
	for _, gen := range []typegraph.Options{{}, nonDefaultGen} {
		opts := Options{Gen: gen}
		for _, src := range version.All {
			for _, tgt := range version.All {
				want := fingerprint(src, tgt, opts)
				if got := Fingerprint(src, tgt, opts); got != want {
					t.Fatalf("%s->%s gen %+v: memoized %s, uncached %s", src, tgt, gen, got, want)
				}
				if _, ok := canonicalFingerprints.Load(fingerprintKey{src: src, tgt: tgt, gen: gen}); !ok {
					t.Fatalf("%s->%s gen %+v: canonical digest not memoized", src, tgt, gen)
				}
				if got := Fingerprint(src, tgt, opts); got != want {
					t.Fatalf("%s->%s gen %+v: memo hit %s, uncached %s", src, tgt, gen, got, want)
				}
			}
		}
	}
}

// Concurrent first callers race on the same misses; every one of them
// must see the uncached digest. Run under `make race`.
func TestFingerprintMemoParallelCallers(t *testing.T) {
	opts := Options{Gen: typegraph.Options{MaxTermsPerTok: 40, MaxCandidates: 256, MaxTermSize: 5}}
	want := map[version.Pair]string{}
	for _, src := range version.All {
		for _, tgt := range version.All {
			want[version.Pair{Source: src, Target: tgt}] = fingerprint(src, tgt, opts)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p, fp := range want {
				if got := Fingerprint(p.Source, p.Target, opts); got != fp {
					t.Errorf("%s: concurrent Fingerprint %s, uncached %s", p, got, fp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Override libraries never read or write the canonical memo: an
// override's digest tracks the library's current contents on every
// call, and canonical digests are unaffected by override traffic.
func TestFingerprintOverridesBypassMemo(t *testing.T) {
	src, tgt := version.V12_0, version.V3_6
	canonical := Fingerprint(src, tgt, Options{})

	getters, builders := irlib.Getters(src), irlib.Builders(tgt)
	for _, tc := range []struct {
		name string
		lib  *irlib.Library
		opts Options
	}{
		{"getters", getters, Options{Getters: getters}},
		{"builders", builders, Options{Builders: builders}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A content-identical override hashes to the canonical digest:
			// the fingerprint is content-addressed.
			if got := Fingerprint(src, tgt, tc.opts); got != canonical {
				t.Fatalf("unmodified override digest %s, canonical %s", got, canonical)
			}
			// Mutating the library between calls must change the digest.
			// A memoized override path would return the stale value here.
			tc.lib.APIs = append(tc.lib.APIs, &irlib.API{Name: "ChaosExtra", Class: irlib.ClassConst, Ret: irlib.Neutral(irlib.TokInt)})
			grown := Fingerprint(src, tgt, tc.opts)
			if grown == canonical {
				t.Fatal("appending an API to the override did not change the digest: override path was memoized")
			}
			if again := Fingerprint(src, tgt, tc.opts); again != grown {
				t.Fatalf("override digest not stable: %s vs %s", grown, again)
			}
			// And the override never wrote the canonical memo.
			if got := Fingerprint(src, tgt, Options{}); got != canonical {
				t.Fatalf("canonical digest changed to %s after override traffic (was %s)", got, canonical)
			}
			canonicalFingerprints.Range(func(k, v any) bool {
				if v.(string) == grown {
					t.Fatalf("override digest memoized under %+v", k)
				}
				return true
			})
		})
	}
}
