package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/irlib"
	"repro/internal/synth"
	"repro/internal/version"
)

var pair12to36 = version.Pair{Source: version.V12_0, Target: version.V3_6}

func synthesizeFor(t testing.TB, pair version.Pair) func() (*synth.Result, error) {
	return func() (*synth.Result, error) {
		s := synth.New(pair.Source, pair.Target, synth.Options{})
		return s.Run(corpus.Tests(pair.Source))
	}
}

func TestCacheOrigins(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir, 8, synth.Options{})

	tr, org, err := c.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36))
	if err != nil {
		t.Fatal(err)
	}
	if org != OriginSynth {
		t.Fatalf("first get origin = %v, want synth", org)
	}
	if tr.Pair != pair12to36 {
		t.Fatalf("translator pair = %v", tr.Pair)
	}

	if _, org, err = c.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36)); err != nil || org != OriginMemory {
		t.Fatalf("second get = %v origin %v, want memory hit", err, org)
	}

	// A fresh cache over the same directory must hit the artifact.
	c2 := NewCache(dir, 8, synth.Options{})
	fail := func() (*synth.Result, error) { t.Fatal("disk hit should not synthesize"); return nil, nil }
	if _, org, err = c2.Get(context.Background(), pair12to36, fail); err != nil || org != OriginDisk {
		t.Fatalf("disk get = %v origin %v, want disk hit", err, org)
	}

	st := c2.Stats()
	if st.DiskHits != 1 || st.Synthesized != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// The cache key is the registry fingerprint: artifacts written under
// different generation bounds must not collide.
func TestCacheKeyIncludesOptions(t *testing.T) {
	c := NewCache("", 8, synth.Options{})
	bounded := synth.Options{}
	bounded.Gen.MaxCandidates = 16
	cb := NewCache("", 8, bounded)
	if c.Key(pair12to36) == cb.Key(pair12to36) {
		t.Fatal("different generation bounds produced the same cache key")
	}

	// An override library (the chaos seam) is keyed by its current
	// contents and never shares a key with the canonical cache, for any
	// source version — including after the library is mutated under the
	// cache.
	getters := &irlib.Library{Ver: pair12to36.Source, Side: irlib.SideSrc}
	builders := &irlib.Library{Ver: pair12to36.Target, Side: irlib.SideTgt}
	for _, tc := range []struct {
		side string
		lib  *irlib.Library
		opts synth.Options
	}{
		{"getters", getters, synth.Options{Getters: getters}},
		{"builders", builders, synth.Options{Builders: builders}},
	} {
		co := NewCache("", 8, tc.opts)
		before := co.Key(pair12to36)
		if before == c.Key(pair12to36) {
			t.Fatalf("%s override shares the canonical key", tc.side)
		}
		tc.lib.APIs = append(tc.lib.APIs, irlib.Getters(pair12to36.Source).APIs[0])
		after := co.Key(pair12to36)
		if after == before {
			t.Fatalf("%s override key unchanged after mutating the library: memoized", tc.side)
		}
		if after == c.Key(pair12to36) {
			t.Fatalf("mutated %s override shares the canonical key", tc.side)
		}
		for _, src := range version.All {
			p := version.Pair{Source: src, Target: version.V3_6}
			if co.Key(p) == c.Key(p) {
				t.Fatalf("%s override shares the canonical key for %s", tc.side, p)
			}
		}
	}
}

// Regression guard for the hit path: a memory hit on a canonical cache
// derives its key from the fingerprint memo and touches only the LRU, so
// it must not allocate. A per-lookup registry rebuild (~2,400 allocs)
// fails this test.
func TestCacheHitAllocs(t *testing.T) {
	c := NewCache("", 8, synth.Options{})
	warm := func() (*synth.Result, error) { return &synth.Result{Pair: pair12to36}, nil }
	ctx := context.Background()
	if _, org, err := c.Get(ctx, pair12to36, warm); err != nil || org != OriginSynth {
		t.Fatalf("warm-up = %v origin %v", err, org)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, org, err := c.Get(ctx, pair12to36, warm); err != nil || org != OriginMemory {
			t.Fatalf("get = %v origin %v, want memory hit", err, org)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times per lookup, want 0", allocs)
	}
}

// A corrupted or stale artifact is silently dropped and re-synthesized,
// never served.
func TestCacheDropsCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir, 8, synth.Options{})
	if _, _, err := c.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36)); err != nil {
		t.Fatal(err)
	}
	path := c.ArtifactPath(pair12to36)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(blob), `"atomic"`, `"atomik"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(dir, 8, synth.Options{})
	resynth := int32(0)
	_, org, err := c2.Get(context.Background(), pair12to36, func() (*synth.Result, error) {
		atomic.AddInt32(&resynth, 1)
		return synthesizeFor(t, pair12to36)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if org != OriginSynth || resynth != 1 {
		t.Fatalf("corrupt artifact served: origin %v, resynth %d", org, resynth)
	}
	if c2.Stats().StaleDropped != 1 {
		t.Fatalf("stats = %+v, want 1 stale drop", c2.Stats())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(files) != 0 {
		t.Fatalf("temp files leaked: %v", files)
	}
}

// Regression test for the missing fsync in persist: a crash between
// write and rename used to be able to publish a truncated artifact at
// the content address. Whatever the artifact's state, a short file must
// never be served — it is dropped, re-synthesized, and rewritten whole.
func TestCacheTruncatedArtifactNotServed(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir, 8, synth.Options{})
	if _, _, err := c.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36)); err != nil {
		t.Fatal(err)
	}
	path := c.ArtifactPath(pair12to36)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash-truncation window: the renamed file exists but
	// holds only a prefix of the artifact.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(dir, 8, synth.Options{})
	resynth := int32(0)
	tr, org, err := c2.Get(context.Background(), pair12to36, func() (*synth.Result, error) {
		atomic.AddInt32(&resynth, 1)
		return synthesizeFor(t, pair12to36)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if org != OriginSynth || resynth != 1 {
		t.Fatalf("truncated artifact served: origin %v, resynth %d", org, resynth)
	}
	if c2.Stats().StaleDropped != 1 {
		t.Fatalf("stats = %+v, want 1 stale drop", c2.Stats())
	}
	// The re-synthesized translator actually translates.
	out, err := tr.Translate(corpus.Tests(pair12to36.Source)[0].Module)
	if err != nil || out.Ver != pair12to36.Target {
		t.Fatalf("translator from re-synthesis broken: %v", err)
	}
	// And the artifact was rewritten whole (byte-deterministic exporter:
	// same options, same bytes).
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(rewritten) != string(blob) {
		t.Fatalf("rewritten artifact differs from original (%d vs %d bytes)", len(rewritten), len(blob))
	}
}

// N concurrent requests for the same uncached pair must trigger exactly
// one synthesis; everyone shares the result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(t.TempDir(), 8, synth.Options{})
	var synths int32
	const goroutines = 24

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := c.Get(context.Background(), pair12to36, func() (*synth.Result, error) {
				atomic.AddInt32(&synths, 1)
				return synthesizeFor(t, pair12to36)()
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if n := atomic.LoadInt32(&synths); n != 1 {
		t.Fatalf("synthesis ran %d times for one key, want 1", n)
	}
	st := c.Stats()
	if st.Synthesized != 1 {
		t.Fatalf("stats.Synthesized = %d, want 1", st.Synthesized)
	}
	if st.Deduplicated+st.MemoryHits != goroutines-1 {
		t.Fatalf("dedup %d + memory %d != %d", st.Deduplicated, st.MemoryHits, goroutines-1)
	}
}

// A panicking synthesize callback must not wedge its key: the flight
// entry is released and the next request synthesizes normally.
func TestCacheSynthPanicReleasesKey(t *testing.T) {
	c := NewCache("", 8, synth.Options{})
	_, _, err := c.Get(context.Background(), pair12to36, func() (*synth.Result, error) { panic("chaos: boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted to an error: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, org, err := c.Get(context.Background(), pair12to36, synthesizeFor(t, pair12to36)); err != nil || org != OriginSynth {
			t.Errorf("key wedged after panic: origin %v err %v", org, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("retry after panic hung on the dead flight entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("", 2, synth.Options{})
	pairs := []version.Pair{
		{Source: version.V12_0, Target: version.V3_6},
		{Source: version.V13_0, Target: version.V3_6},
		{Source: version.V14_0, Target: version.V3_6},
	}
	for _, p := range pairs {
		if _, _, err := c.Get(context.Background(), p, synthesizeFor(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Pairs()); got != 2 {
		t.Fatalf("resident pairs = %d, want 2", got)
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	// The memory-only cache re-synthesizes the evicted pair.
	n := int32(0)
	if _, org, err := c.Get(context.Background(), pairs[0], func() (*synth.Result, error) {
		atomic.AddInt32(&n, 1)
		return synthesizeFor(t, pairs[0])()
	}); err != nil || org != OriginSynth || n != 1 {
		t.Fatalf("evicted pair: err %v origin %v synths %d", err, org, n)
	}
}

// Recency regression for the size-bounded artifact GC: a disk hit must
// bump the artifact's mtime, so under byte pressure the GC evicts the
// artifact that was written earliest but NOT the one that was written
// earliest and then recently served. Without the touch-on-hit, creation
// order alone would decide eviction and the hottest artifact could be
// the first to go.
func TestCacheGCEvictsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir, 8, synth.Options{})
	seed := []version.Pair{
		{Source: version.V12_0, Target: version.V3_6}, // oldest write, but touched below
		{Source: version.V13_0, Target: version.V3_6},
		{Source: version.V14_0, Target: version.V3_6},
	}
	var total int64
	for _, p := range seed {
		if _, _, err := c.Get(context.Background(), p, synthesizeFor(t, p)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(c.ArtifactPath(p))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
		time.Sleep(10 * time.Millisecond) // separate mtimes on coarse filesystems
	}

	// A fresh cache over the populated directory, now with a byte budget:
	// the disk hit on the oldest artifact must refresh its GC recency.
	c2 := NewCache(dir, 8, synth.Options{})
	c2.SetMaxBytes(total - 1)
	fail := func() (*synth.Result, error) { t.Fatal("disk hit should not synthesize"); return nil, nil }
	if _, org, err := c2.Get(context.Background(), seed[0], fail); err != nil || org != OriginDisk {
		t.Fatalf("warm-up read: origin %v err %v, want disk hit", org, err)
	}

	// Persisting a fourth artifact overflows the budget and triggers GC.
	fourth := version.Pair{Source: version.V14_0, Target: version.V3_7}
	if _, _, err := c2.Get(context.Background(), fourth, synthesizeFor(t, fourth)); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(c2.ArtifactPath(seed[0])); err != nil {
		t.Errorf("recently served artifact %s was evicted: %v", seed[0], err)
	}
	if _, err := os.Stat(c2.ArtifactPath(seed[1])); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("least recently used artifact %s survived GC (err %v)", seed[1], err)
	}
	if _, err := os.Stat(c2.ArtifactPath(fourth)); err != nil {
		t.Errorf("just-written artifact %s was evicted: %v", fourth, err)
	}
	if ev := c2.Stats().GCEvictions; ev < 1 {
		t.Errorf("GCEvictions = %d, want at least 1", ev)
	}
}

// Torn-read stress for the artifact exchange path: while one goroutine
// re-persists the same artifact in a tight loop, concurrent readers
// must only ever observe either "no artifact yet" or a complete blob
// whose embedded fingerprint verifies — never a torn or mid-write file.
// This is the property cluster peers rely on when fetching artifacts
// straight off each other's cache directories.
func TestCacheReadArtifactNeverTorn(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir, 8, synth.Options{})
	res, err := synthesizeFor(t, pair12to36)()
	if err != nil {
		t.Fatal(err)
	}
	key := c.Key(pair12to36)

	stop := make(chan struct{})
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.persist(pair12to36, key, res); err != nil {
				t.Errorf("persist: %v", err)
				return
			}
			writes.Add(1)
		}
	}()

	var reads, misses atomic.Int64
	const readers = 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				blob, gotKey, err := c.ReadArtifact(pair12to36)
				if err != nil {
					if errors.Is(err, os.ErrNotExist) {
						misses.Add(1) // racing the very first persist
						continue
					}
					t.Errorf("ReadArtifact: %v", err)
					return
				}
				if gotKey != key {
					t.Errorf("ReadArtifact key = %s, want %s", gotKey, key)
					return
				}
				if _, err := synth.Import(blob, synth.Options{}); err != nil {
					t.Errorf("torn artifact crossed ReadArtifact (%d bytes): %v", len(blob), err)
					return
				}
				reads.Add(1)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("stress did no work: %d writes, %d verified reads", writes.Load(), reads.Load())
	}
	t.Logf("torn-read stress: %d persists, %d verified reads, %d early misses", writes.Load(), reads.Load(), misses.Load())
}
