package service

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/version"
)

// The streaming path's memory bound, quantified: batch translation's
// peak live heap grows with module size, streaming's does not.
// TestStreamPeakHeapStaysFlat translates a generated module and its
// 10x-larger sibling through both pipelines, measures peak live heap
// growth with forced GCs, and asserts streaming stays flat (<= 1.3x)
// while batch scales (>= 5x).

// gcHeap returns the live heap after a full collection.
func gcHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkpointWriter discards output but samples the live heap every
// `every` bytes, catching the in-flight peak mid-stream.
type checkpointWriter struct {
	every int
	since int
	peak  uint64
}

func (c *checkpointWriter) Write(p []byte) (int, error) {
	c.since += len(p)
	if c.since >= c.every {
		c.since = 0
		if h := gcHeap(); h > c.peak {
			c.peak = h
		}
	}
	return len(p), nil
}

func genModuleFile(tb testing.TB, dir string, funcs int, src version.V) string {
	tb.Helper()
	m := irgen.Generate(irgen.Config{Seed: 11, Ver: src, Funcs: funcs, Blocks: 5})
	text, err := irtext.NewWriter(src).WriteModule(m)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "mod.ll")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

func TestStreamPeakHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("forces many full GCs; skipped in short mode")
	}
	p := benchPair()
	cache := NewCache("", 4, synth.Options{})
	tr, _, err := cache.Get(context.Background(), p, func() (*synth.Result, error) { return DefaultSynthFn(p, synth.Options{}) })
	if err != nil {
		t.Fatal(err)
	}

	const baseFuncs = 100
	small := genModuleFile(t, t.TempDir(), baseFuncs, p.Source)
	large := genModuleFile(t, t.TempDir(), baseFuncs*10, p.Source)

	// streamPeak translates from an open file (the input is never fully
	// resident) and reports live-heap growth over the pre-stream floor.
	streamPeak := func(path string) uint64 {
		base := gcHeap()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cw := &checkpointWriter{every: 64 << 10}
		if err := tr.TranslateStream(f, cw); err != nil {
			t.Fatalf("TranslateStream(%s): %v", path, err)
		}
		if cw.peak <= base {
			return 0
		}
		return cw.peak - base
	}

	// batchPeak holds input text, parsed module, translated module and
	// rendered output live at once — the pipeline streaming replaces.
	batchPeak := func(path string) uint64 {
		base := gcHeap()
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := irtext.Parse(string(text), p.Source)
		if err != nil {
			t.Fatal(err)
		}
		peak := gcHeap()
		m2, err := tr.Translate(m)
		if err != nil {
			t.Fatal(err)
		}
		rendered, err := irtext.NewWriter(p.Target).WriteModule(m2)
		if err != nil {
			t.Fatal(err)
		}
		if h := gcHeap(); h > peak {
			peak = h
		}
		runtime.KeepAlive(text)
		runtime.KeepAlive(m)
		runtime.KeepAlive(m2)
		runtime.KeepAlive(rendered)
		if peak <= base {
			return 0
		}
		return peak - base
	}

	s1, s10 := streamPeak(small), streamPeak(large)
	b1, b10 := batchPeak(small), batchPeak(large)

	// Small growths drown in GC noise; a 1 MiB floor keeps the stream
	// ratio honest without letting two tiny numbers fabricate a failure.
	const floor = 1 << 20
	clamp := func(v uint64) float64 {
		if v < floor {
			return floor
		}
		return float64(v)
	}
	streamRatio := clamp(s10) / clamp(s1)
	batchRatio := float64(b10) / clamp(b1)
	t.Logf("stream growth: 1x=%d B, 10x=%d B (ratio %.2f); batch growth: 1x=%d B, 10x=%d B (ratio %.2f)",
		s1, s10, streamRatio, b1, b10, batchRatio)
	if streamRatio > 1.3 {
		t.Errorf("streaming peak heap grew %.2fx on a 10x module, want <= 1.3x — the memory bound is broken", streamRatio)
	}
	if batchRatio < 5 {
		t.Errorf("batch peak heap grew only %.2fx on a 10x module, want >= 5x — the baseline stopped buffering?", batchRatio)
	}
}
