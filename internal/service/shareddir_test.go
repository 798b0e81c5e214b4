package service

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/synth"
	"repro/internal/version"
)

// Several daemons over one cache directory is the multi-daemon
// deployment: artifacts are whole files at their content address, so a
// pair one service synthesized is a disk hit for every other. Service A
// warms the first k pairs alone; then A and B warm the same pairs
// concurrently in opposite orders. Each service synthesizes a pair at
// most once (singleflight is per process), so a pair costs at most two
// syntheses in total, and no artifact either of them reads is torn.
// Finally a third service that must not synthesize serves every pair
// from disk, byte-identical to A's.
func TestSharedCacheDirTwoServices(t *testing.T) {
	const nPairs, k = 24, 6
	dir := t.TempDir()

	var mu sync.Mutex
	synths := map[version.Pair]int{}
	counting := func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		mu.Lock()
		synths[pair]++
		mu.Unlock()
		return DefaultSynthFn(pair, opts)
	}
	a := New(Config{CacheDir: dir, Workers: 2, SynthFn: counting})
	defer a.Close()
	b := New(Config{CacheDir: dir, Workers: 2, SynthFn: counting})
	defer b.Close()

	pairs := a.MatrixPairs()[:nPairs]
	ctx := context.Background()
	for _, p := range pairs[:k] {
		if err := a.Warm(ctx, p.Source, p.Target); err != nil {
			t.Fatalf("A warm %s: %v", p, err)
		}
	}

	var wg sync.WaitGroup
	warm := func(name string, svc *Service, order []version.Pair) {
		defer wg.Done()
		for _, p := range order {
			if err := svc.Warm(ctx, p.Source, p.Target); err != nil {
				t.Errorf("%s warm %s: %v", name, p, err)
			}
		}
	}
	reversed := make([]version.Pair, nPairs)
	for i, p := range pairs {
		reversed[nPairs-1-i] = p
	}
	wg.Add(2)
	go warm("A", a, pairs)
	go warm("B", b, reversed)
	wg.Wait()

	for name, svc := range map[string]*Service{"A": a, "B": b} {
		if n := svc.Stats().Cache.StaleDropped; n != 0 {
			t.Errorf("%s StaleDropped = %d, want 0", name, n)
		}
	}
	mu.Lock()
	counts := maps.Clone(synths)
	mu.Unlock()
	total := 0
	for _, p := range pairs {
		if n := counts[p]; n > 2 {
			t.Errorf("%s synthesized %d times across two services, want at most 2", p, n)
		}
		total += counts[p]
	}
	if hits := b.Stats().Cache.DiskHits; hits < k {
		t.Errorf("B disk hits = %d, want at least the %d pairs A persisted first", hits, k)
	}

	c := New(Config{CacheDir: dir, Workers: 1, SynthFn: func(pair version.Pair, _ synth.Options) (*synth.Result, error) {
		t.Errorf("third service synthesized %s: the shared directory should have served it", pair)
		return nil, errors.New("unexpected synthesis")
	}})
	defer c.Close()
	noSynth := func() (*synth.Result, error) { return nil, errors.New("not in memory") }
	export := func(svc *Service, p version.Pair) []byte {
		res, _, err := svc.Cache().GetResult(ctx, p, noSynth)
		if err != nil {
			t.Fatalf("%s lost from memory: %v", p, err)
		}
		blob, err := res.Export()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, p := range pairs {
		if err := c.Warm(ctx, p.Source, p.Target); err != nil {
			t.Fatalf("third service %s: %v", p, err)
		}
	}
	if st := c.Stats().Cache; st.DiskHits != nPairs || st.Synthesized != 0 || st.StaleDropped != 0 {
		t.Errorf("third service cache = %+v, want %d disk hits and nothing synthesized or dropped", st, nPairs)
	}
	for _, p := range pairs {
		if !bytes.Equal(export(c, p), export(a, p)) {
			t.Errorf("%s (synthesized %d times): disk artifact exports bytes that differ from A's", p, counts[p])
		}
	}
	t.Logf("%d pairs: %d syntheses across A and B, B disk hits %d", nPairs, total, b.Stats().Cache.DiskHits)
}

// A disk hit generates through the service's GenCache, as a synthesis
// does, so a daemon serving a filled directory holds one candidate list
// per generation surface instead of one per imported pair. Service A
// fills the directory with the whole matrix; service B, which must not
// synthesize, serves every pair from disk and ends with exactly A's
// surfaces. Two neighbor artifacts B imported share their candidate
// slice for a kind whose generation surface the pairs share.
func TestDiskHitsShareGeneration(t *testing.T) {
	if raceDetectorOn {
		t.Skip("210 syntheses under the race detector; the synth race gate covers shared terms")
	}
	dir := t.TempDir()
	ctx := context.Background()
	a := New(Config{CacheDir: dir, Workers: 1})
	defer a.Close()
	all := len(a.MatrixPairs())
	if n, err := a.WarmMatrix(ctx, nil); err != nil || n != all {
		t.Fatalf("A warmed %d of %d pairs: %v", n, all, err)
	}

	b := New(Config{CacheDir: dir, Workers: 1, SynthFn: func(pair version.Pair, _ synth.Options) (*synth.Result, error) {
		t.Errorf("B synthesized %s: the filled directory should have served it", pair)
		return nil, errors.New("unexpected synthesis")
	}})
	defer b.Close()
	if n, err := b.WarmMatrix(ctx, nil); err != nil || n != all {
		t.Fatalf("B warmed %d of %d pairs: %v", n, all, err)
	}
	if st := b.Stats().Cache; st.DiskHits != int64(all) || st.Synthesized != 0 {
		t.Fatalf("B cache = %+v, want %d disk hits and nothing synthesized", st, all)
	}
	if got, want := b.genCache.Len(), a.genCache.Len(); got != want || want == 0 {
		t.Fatalf("B's GenCache holds %d surfaces after %d disk hits, A's %d after synthesizing them", got, all, want)
	} else {
		t.Logf("%d disk hits generated %d surfaces, as many as synthesis did", all, got)
	}

	// 12.0 and 13.0 expose the same add getters, and both pairs build
	// with the 3.6 builders: one generation surface for add.
	noSynth := func() (*synth.Result, error) { return nil, errors.New("not cached") }
	var adds [][]*irlib.Atomic
	for _, p := range []version.Pair{pair12to36, {Source: version.V13_0, Target: version.V3_6}} {
		res, org, err := b.Cache().GetResult(ctx, p, noSynth)
		if err != nil || res.Refined != nil {
			t.Fatalf("%s: origin %v, err %v; want an imported result", p, org, err)
		}
		if len(res.Candidates[ir.Add]) == 0 {
			t.Fatalf("%s: imported result has no add candidates", p)
		}
		adds = append(adds, res.Candidates[ir.Add])
	}
	if &adds[0][0] != &adds[1][0] {
		t.Fatal("two imported neighbors hold private add candidate lists instead of the GenCache's shared one")
	}
}

// Cache directories written while the service still had a synthesis
// cost model hold the model's file beside the artifacts. Nothing reads
// it any more: artifacts in such a directory still load as disk hits,
// and the size-bounded GC, whose siro-*.json filter counts the file, may
// delete it like any stale artifact without failing the persist that
// triggered the sweep.
func TestCacheDirLeftoverModelFile(t *testing.T) {
	dir := t.TempDir()
	writer := NewCache(dir, 8, synth.Options{})
	if _, _, err := writer.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(writer.ArtifactPath(pair12to36))
	if err != nil {
		t.Fatal(err)
	}
	// The leftover is the oldest file in the directory and larger than
	// any artifact (a full-matrix model grew to ~127 KB).
	leftover := filepath.Join(dir, "siro-costmodel.json")
	if err := os.WriteFile(leftover, bytes.Repeat([]byte(" "), int(max(128<<10, 4*info.Size()))), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(leftover, old, old); err != nil {
		t.Fatal(err)
	}

	fail := func() (*synth.Result, error) {
		t.Error("disk hit should not synthesize")
		return nil, errors.New("unexpected synthesis")
	}
	c := NewCache(dir, 8, synth.Options{})
	if _, org, err := c.Get(context.Background(), pair12to36, fail); err != nil || org != OriginDisk {
		t.Fatalf("artifact beside a leftover cost model: origin %v, err %v; want a disk hit", org, err)
	}

	// A budget of three artifacts fits both real artifacts but not the
	// leftover file, so persisting a second pair sweeps it.
	c.SetMaxBytes(3 * info.Size())
	other := version.Pair{Source: version.V13_0, Target: version.V3_6}
	if _, org, err := c.Get(context.Background(), other, synthesizeFor(t, other)); err != nil || org != OriginSynth {
		t.Fatalf("persist under a byte budget: origin %v, err %v", org, err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover cost model survived the GC sweep: %v", err)
	}
	if ev := c.Stats().GCEvictions; ev != 1 {
		t.Fatalf("GCEvictions = %d, want 1 (only the leftover file)", ev)
	}
	fresh := NewCache(dir, 8, synth.Options{})
	for _, p := range []version.Pair{pair12to36, other} {
		if _, org, err := fresh.Get(context.Background(), p, fail); err != nil || org != OriginDisk {
			t.Fatalf("%s after the sweep: origin %v, err %v; want a disk hit", p, org, err)
		}
	}
}
