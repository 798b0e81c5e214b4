// Package service is the long-running translation service above the
// synthesize→translate→validate pipeline: a content-addressed
// translator cache, a multi-hop version router for pairs with no
// direct translator, and a bounded worker pool fronted by an HTTP
// daemon (cmd/sirod) — the deployment shape the paper's one-off
// synthesis economics call for. A translator is synthesized at most
// once per (source, target, API-registry fingerprint) and then served
// from memory for the lifetime of the process, from disk across
// processes, and shared between concurrent requests through
// singleflight deduplication.
package service

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/synth"
	"repro/internal/translator"
	"repro/internal/version"
)

// Origin says where a translator came from.
type Origin int

// The translator origins, cheapest first.
const (
	// OriginMemory — LRU hit, no work.
	OriginMemory Origin = iota
	// OriginDisk — artifact imported from the cache directory.
	OriginDisk
	// OriginSynth — full synthesis ran.
	OriginSynth
	// OriginShared — another in-flight request synthesized it and this
	// one waited (singleflight).
	OriginShared
)

func (o Origin) String() string {
	switch o {
	case OriginMemory:
		return "memory"
	case OriginDisk:
		return "disk"
	case OriginSynth:
		return "synth"
	case OriginShared:
		return "shared"
	}
	return "?"
}

// CacheStats counts cache traffic. Every lookup is counted before its
// outcome, and Cache.Stats reads the outcome counters before Lookups,
// so in every snapshot the per-outcome counters sum to at most Lookups
// — the invariant /v1/stats consumers may rely on (hits never exceed
// lookups; the difference is the lookups still in flight).
type CacheStats struct {
	Lookups      int64 `json:"lookups"`
	MemoryHits   int64 `json:"memory_hits"`
	DiskHits     int64 `json:"disk_hits"`
	Synthesized  int64 `json:"synthesized"`
	Deduplicated int64 `json:"deduplicated"` // requests served by waiting on another's synthesis
	Evictions    int64 `json:"evictions"`
	StaleDropped int64 `json:"stale_dropped"` // on-disk artifacts rejected by the fingerprint check
	Quarantined  int64 `json:"quarantined"`   // artifacts pulled after failing serve-time validation
	GCEvictions  int64 `json:"gc_evictions"`  // on-disk artifacts removed by the size-bounded GC
}

// Cache is the content-addressed translator cache: an in-memory LRU of
// ready translators layered over on-disk synthesis artifacts. The key
// is synth.Fingerprint(src, tgt, opts) — the version pair plus a digest
// of the API-registry surface and generation bounds — so a registry
// change silently misses instead of resurrecting a stale translator,
// and equal keys are guaranteed equal artifacts by the
// byte-deterministic exporter.
//
// Concurrent Get calls for the same key are deduplicated: exactly one
// caller synthesizes, the rest block and share the result.
type Cache struct {
	dir      string // "" = memory-only
	max      int    // LRU capacity (entries)
	maxBytes int64  // on-disk artifact budget; 0 = unbounded
	opts     synth.Options
	met      cacheMetrics // the cache's counters; Stats reads them

	mu     sync.Mutex
	ll     *list.List // front = most recent; values are *cacheEntry
	items  map[string]*list.Element
	flight map[string]*flightCall

	gcMu sync.Mutex // serializes on-disk GC sweeps (never held with mu)
}

type cacheEntry struct {
	key  string
	pair version.Pair
	res  *synth.Result
	tr   *translator.Translator
}

type flightCall struct {
	done chan struct{}
	res  *synth.Result
	tr   *translator.Translator
	org  Origin
	err  error
}

// NewCache builds a cache over dir (created on demand; "" keeps the
// cache memory-only). maxEntries bounds the in-memory LRU; 0 means 64.
// opts are the synthesis options translators are synthesized and
// re-imported under — they are part of the cache key.
func NewCache(dir string, maxEntries int, opts synth.Options) *Cache {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Cache{
		dir:    dir,
		max:    maxEntries,
		opts:   opts,
		ll:     list.New(),
		items:  map[string]*list.Element{},
		flight: map[string]*flightCall{},
		met:    newCacheMetrics(nil),
	}
}

// SetMaxBytes bounds the on-disk artifact directory: after every
// persist, least-recently-hit artifacts (by mtime, bumped on each disk
// hit) are removed until the total is within budget.
// 0 (the default) leaves the directory unbounded. Call before the cache
// sees traffic.
func (c *Cache) SetMaxBytes(n int64) { c.maxBytes = n }

// Key returns the content address of the pair under the cache's
// synthesis options. Every lookup derives it, so it must be cheap: for
// canonical libraries synth.Fingerprint memoizes it per (pair, Gen) —
// sound because irlib registries are pure functions of version — and a
// hit costs a map load. A cache built over override libraries re-hashes
// them on every call.
func (c *Cache) Key(pair version.Pair) string {
	return synth.Fingerprint(pair.Source, pair.Target, c.opts)
}

// path is the artifact file for a key: human-readable pair prefix plus
// the content address.
func (c *Cache) path(pair version.Pair, key string) string {
	return filepath.Join(c.dir, fmt.Sprintf("siro-%s-%s-%s.json", pair.Source, pair.Target, key[:16]))
}

// Get returns the translator for pair, trying memory, then disk, then
// the synthesize callback (which runs at most once per key across all
// concurrent callers). The callback's result is persisted to the cache
// directory before being served.
//
// The context bounds only the *wait*, not the work: when ctx expires
// the caller unblocks with a Budget-classed failure, but the in-flight
// load keeps running detached and its result still lands in the cache
// (work conservation — a canceled warm-up must not discard an almost
// finished synthesis, and a waiter's deadline must not starve the
// other waiters).
func (c *Cache) Get(ctx context.Context, pair version.Pair, synthesize func() (*synth.Result, error)) (*translator.Translator, Origin, error) {
	e, org, err := c.get(ctx, pair, synthesize)
	if err != nil {
		return nil, org, err
	}
	return e.tr, org, nil
}

// GetResult is Get at the synthesis-result level, for callers that
// render or export the artifact rather than translating with it.
func (c *Cache) GetResult(ctx context.Context, pair version.Pair, synthesize func() (*synth.Result, error)) (*synth.Result, Origin, error) {
	e, org, err := c.get(ctx, pair, synthesize)
	if err != nil {
		return nil, org, err
	}
	return e.res, org, nil
}

func (c *Cache) get(ctx context.Context, pair version.Pair, synthesize func() (*synth.Result, error)) (*cacheEntry, Origin, error) {
	key := c.Key(pair)
	for {
		// The lookup is counted before its outcome, so outcome counters
		// can never exceed Lookups in any snapshot (see Stats).
		c.met.lookups.Inc()
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.met.memoryHits.Inc()
			e := el.Value.(*cacheEntry)
			c.mu.Unlock()
			return e, OriginMemory, nil
		}
		if fl, ok := c.flight[key]; ok {
			c.met.deduplicated.Inc()
			c.mu.Unlock()
			e, org, err := c.await(ctx, pair, key, fl, true)
			if err != nil && failure.ClassOf(err) == failure.Budget && (ctx == nil || ctx.Err() == nil) {
				// The flight died on the LEADER's budget (its caller's
				// deadline), not ours — deterministic for the leader,
				// not for us. Retry: the leader already removed the
				// flight entry, so the next round starts a fresh one.
				continue
			}
			return e, org, err
		}
		fl := &flightCall{done: make(chan struct{})}
		c.flight[key] = fl
		c.mu.Unlock()

		// The leader's work runs detached so the leader itself is
		// interruptible like any waiter.
		go c.lead(pair, key, fl, synthesize)
		return c.await(ctx, pair, key, fl, false)
	}
}

// lead runs the load as singleflight leader and publishes the outcome
// to every caller parked in await.
func (c *Cache) lead(pair version.Pair, key string, fl *flightCall, synthesize func() (*synth.Result, error)) {
	e, org, err := c.loadContained(pair, key, synthesize)
	if e != nil {
		fl.res, fl.tr = e.res, e.tr
	}
	fl.org, fl.err = org, err

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.insert(e)
		switch org {
		case OriginDisk:
			c.met.diskHits.Inc()
		case OriginSynth:
			c.met.synthesized.Inc()
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// await parks a caller on a flight until it completes or the caller's
// context expires, whichever comes first.
func (c *Cache) await(ctx context.Context, pair version.Pair, key string, fl *flightCall, shared bool) (*cacheEntry, Origin, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, OriginShared, fmt.Errorf("service: abandoned wait for %s translator: %w", pair, failure.FromContext(ctx.Err()))
	}
	org := fl.org
	if shared {
		org = OriginShared
	}
	if fl.err != nil {
		return nil, org, fl.err
	}
	return &cacheEntry{key: key, pair: pair, res: fl.res, tr: fl.tr}, org, nil
}

// loadContained runs load with panics converted to errors. The
// singleflight leader must never unwind past the flight bookkeeping: a
// panicking synthesize callback would otherwise leave the flight entry
// registered with its done channel unclosed, hanging every later
// request for the key.
func (c *Cache) loadContained(pair version.Pair, key string, synthesize func() (*synth.Result, error)) (e *cacheEntry, org Origin, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, org = nil, OriginSynth
			err = failure.Wrapf(failure.Validation, "service: panic synthesizing %s: %v", pair, r)
		}
	}()
	return c.load(pair, key, synthesize)
}

// load misses through to disk and then synthesis. Runs outside the
// cache lock (it is the singleflight leader's slow path).
func (c *Cache) load(pair version.Pair, key string, synthesize func() (*synth.Result, error)) (*cacheEntry, Origin, error) {
	if c.dir != "" {
		if blob, err := os.ReadFile(c.path(pair, key)); err == nil {
			res, err := synth.Import(blob, c.opts)
			if err == nil {
				c.touch(c.path(pair, key)) // a hit refreshes GC recency
				return &cacheEntry{key: key, pair: pair, res: res, tr: c.newTranslator(res)}, OriginDisk, nil
			}
			// A stale or corrupt artifact is a miss, not a failure: drop
			// it and re-synthesize.
			c.met.staleDropped.Inc()
			os.Remove(c.path(pair, key))
		}
	}
	res, err := synthesize()
	if err != nil {
		return nil, OriginSynth, err
	}
	if c.dir != "" {
		if err := c.persist(pair, key, res); err != nil {
			return nil, OriginSynth, err
		}
	}
	return &cacheEntry{key: key, pair: pair, res: res, tr: c.newTranslator(res)}, OriginSynth, nil
}

// newTranslator wraps a synthesis result, attaching the cache's
// translation observer (a no-op for an uninstrumented cache). The
// observer is installed before the translator is published to other
// goroutines.
func (c *Cache) newTranslator(res *synth.Result) *translator.Translator {
	tr := translator.FromResult(res)
	if c.met.onTranslate != nil {
		tr.Observer = c.met.onTranslate
	}
	return tr
}

// persist atomically writes the artifact (tmp + fsync + rename), so a
// crashed or concurrent writer never leaves a torn file at the content
// address. The fsync before the rename matters: without it a crash
// shortly after publication can leave the *renamed* file with
// truncated contents, which the load path would then have to drop on
// every future start instead of never seeing.
func (c *Cache) persist(pair version.Pair, key string, res *synth.Result) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("service: cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "siro-*.tmp")
	if err != nil {
		return fmt.Errorf("service: cache write: %w", err)
	}
	// Stream the artifact straight to the temp file — no whole-blob
	// intermediate, so persisting never doubles a large artifact in
	// memory.
	if err := res.ExportTo(tmp, c.opts); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return failure.Wrapf(failure.Validation, "service: exporting artifact for %s: %w", pair, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(pair, key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	c.gc(c.path(pair, key))
	return nil
}

// touch bumps an artifact's mtime so the size-bounded GC sees it as
// recently used. Best effort: a lost bump only makes the artifact
// eligible for eviction earlier.
func (c *Cache) touch(path string) {
	if c.maxBytes > 0 {
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
}

// gc enforces the on-disk byte budget after a persist: finished
// artifacts (never in-flight *.tmp files, never the quarantine
// subdirectory) are removed oldest-mtime-first until the directory fits,
// sparing the artifact just written. Removal is a plain unlink — atomic,
// and harmless to concurrent readers that already opened the file.
func (c *Cache) gc(justWrote string) {
	if c.maxBytes <= 0 || c.dir == "" {
		return
	}
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type artifact struct {
		path  string
		size  int64
		mtime time.Time
	}
	var arts []artifact
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "siro-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		arts = append(arts, artifact{path: filepath.Join(c.dir, e.Name()), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].mtime.Before(arts[j].mtime) })
	for _, a := range arts {
		if total <= c.maxBytes {
			return
		}
		if a.path == justWrote {
			continue // never evict the artifact this persist produced
		}
		if os.Remove(a.path) == nil {
			total -= a.size
			c.met.gcEvictions.Inc()
		}
	}
}

// insert adds an entry to the LRU, evicting the least recently used
// entry past capacity. Evicted translators stay on disk. Caller holds
// the lock.
func (c *Cache) insert(e *cacheEntry) {
	if el, ok := c.items[e.key]; ok { // lost a race with another inserter
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.met.evictions.Inc()
	}
}

// Quarantine removes the pair's translator from the LRU and moves its
// on-disk artifact into the cache directory's quarantine/ subdirectory
// — called when a cached translator fails serve-time differential
// validation, so the poisoned artifact can neither be served again nor
// re-imported on the next start, yet stays on disk for a post-mortem.
// The next Get for the pair re-synthesizes.
func (c *Cache) Quarantine(pair version.Pair) error {
	key := c.Key(pair)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.mu.Unlock()
	c.met.quarantined.Inc()
	if c.dir == "" {
		return nil
	}
	src := c.path(pair, key)
	qdir := filepath.Join(c.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("service: quarantine dir: %w", err)
	}
	if err := os.Rename(src, filepath.Join(qdir, filepath.Base(src))); err != nil {
		if os.IsNotExist(err) {
			return nil // memory-only entry; nothing on disk
		}
		return fmt.Errorf("service: quarantining %s: %w", pair, err)
	}
	return nil
}

// ArtifactPath returns where the pair's artifact lives on disk under
// the current registry fingerprint ("" for a memory-only cache).
func (c *Cache) ArtifactPath(pair version.Pair) string {
	if c.dir == "" {
		return ""
	}
	return c.path(pair, c.Key(pair))
}

// Pairs lists the version pairs currently resident in memory, sorted.
func (c *Cache) Pairs() []version.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]version.Pair, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).pair)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Stats snapshots the cache counters, the same ones /metrics exports
// for a service's cache. The outcome counters are read before Lookups:
// every outcome's lookup was counted before it, so the outcomes never
// sum past Lookups in a snapshot.
func (c *Cache) Stats() CacheStats {
	m := c.met
	st := CacheStats{
		MemoryHits:   m.memoryHits.Value(),
		DiskHits:     m.diskHits.Value(),
		Synthesized:  m.synthesized.Value(),
		Deduplicated: m.deduplicated.Value(),
		Evictions:    m.evictions.Value(),
		StaleDropped: m.staleDropped.Value(),
		Quarantined:  m.quarantined.Value(),
		GCEvictions:  m.gcEvictions.Value(),
	}
	st.Lookups = m.lookups.Value()
	return st
}
