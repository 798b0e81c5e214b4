package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/version"
)

// matrixArtifactsSHA256 is the sha256 over the exports of all 210
// matrix pairs, synthesized by a memory-only service's sequential
// WarmMatrix and concatenated in MatrixPairs order. A change that
// legitimately changes artifacts updates it and says why in CHANGES.md.
const matrixArtifactsSHA256 = "4690b9997b446e4432765814bd7868ac136e33f2e089feabffd18f7deefa4cde"

// The whole matrix's artifacts are pinned: optimizations of synthesis
// and Import must not change a byte. Every artifact must also survive
// Import unchanged, with and without a shared GenCache, and the imported
// result must render the same translators as the fresh one (Atomic.ID
// comes from the sorted candidate list on both sides).
func TestMatrixArtifactsPinned(t *testing.T) {
	if raceDetectorOn {
		t.Skip("210 syntheses under the race detector; the synth race gate covers shared terms")
	}
	var mu sync.Mutex
	results := map[version.Pair]*synth.Result{}
	recording := func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		res, err := DefaultSynthFn(pair, opts)
		if err == nil {
			mu.Lock()
			results[pair] = res
			mu.Unlock()
		}
		return res, err
	}
	svc := New(Config{Workers: 1, SynthFn: recording})
	defer svc.Close()
	pairs := svc.MatrixPairs()
	if n, err := svc.WarmMatrix(context.Background(), nil); err != nil || n != len(pairs) {
		t.Fatalf("WarmMatrix warmed %d of %d pairs: %v", n, len(pairs), err)
	}

	h := sha256.New()
	shared := synth.NewGenCache()
	for _, p := range pairs {
		res := results[p]
		if res == nil {
			t.Fatalf("%s was never synthesized", p)
		}
		blob, err := res.Export()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
		fresh := res.RenderAll()
		for _, opts := range []synth.Options{{}, {GenCache: shared}} {
			imported, err := synth.Import(blob, opts)
			if err != nil {
				t.Fatalf("%s: import (shared GenCache %v): %v", p, opts.GenCache != nil, err)
			}
			again, err := imported.Export()
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(blob) {
				t.Errorf("%s: re-export after import (shared GenCache %v) differs", p, opts.GenCache != nil)
			}
			if imported.RenderAll() != fresh {
				t.Errorf("%s: imported RenderAll (shared GenCache %v) differs from the fresh result's", p, opts.GenCache != nil)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != matrixArtifactsSHA256 {
		t.Errorf("matrix artifacts sha256 = %s, want %s", got, matrixArtifactsSHA256)
	}
}
