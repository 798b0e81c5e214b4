package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/version"
)

// workload is one traffic mix the benchmark runs. Every workload but
// cold-matrix draws its requests from the scenario corpus through
// scenario.Compile, so arrivals, entries and request modes are a pure
// function of the seed.
type workload struct {
	name string
	// mix selects the corpus classes (with whole-number weights) and
	// request modes; nil for cold-matrix, which requests every ordered
	// version pair instead.
	mix *scenario.Mix
	// stream is the request mode the mix must compile to for every
	// request: raw text with ?stream=1, or JSON.
	stream bool
	// rate is the open-loop arrival rate in requests/s, chosen well
	// below the closed-loop capacity measured on 2 cores so that the
	// open-loop latency reports service time, not a growing backlog.
	rate float64
}

var workloads = []workload{
	{
		// Tiny Table 3 modules served from the memory cache: fixed
		// per-request costs (cache key, HTTP/JSON, queue handoff) dominate.
		name: "hot",
		mix:  &scenario.Mix{Name: "bench-hot", Weights: map[string]float64{scenario.ClassHot: 1}},
		rate: 800,
	},
	{
		// 14-21 KB modules on the same cached JSON path: parse, translate
		// and write dominate and the cache key is noise.
		name: "bulk",
		mix:  &scenario.Mix{Name: "bench-bulk", Weights: map[string]float64{scenario.ClassMedium: 1, scenario.ClassMatrix: 1}},
		rate: 60,
	},
	{
		// 21-320 KB modules streamed function-at-a-time with ?stream=1:
		// the stream parser and bounded-memory path. 5:1 puts the p50
		// inside the medium modules and the tail inside the giants. At
		// 16 req/s a giant is in flight ~17% of the time, so the p50 stays
		// among mediums served alone rather than on the edge between those
		// and mediums sharing the CPU with a giant.
		name:   "stream",
		mix:    &scenario.Mix{Name: "bench-stream", Weights: map[string]float64{scenario.ClassMedium: 5, scenario.ClassGiant: 1}, StreamMedium: 1},
		stream: true,
		rate:   16,
	},
	{
		// All 210 version pairs once each on a fresh daemon: every request
		// misses the cache and synthesis dominates.
		name: "cold-matrix",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// entry is a corpus entry with its materialized body and, for the JSON
// surface, its pre-encoded request.
type entry struct {
	name     string
	src, tgt version.V
	body     string
	jsonReq  []byte
}

func (e *entry) pair() version.Pair { return version.Pair{Source: e.src, Target: e.tgt} }

// loadEntries materializes every entry of the mix's classes, keyed by
// name. Irgen recipes are expanded here, before any timing starts.
func loadEntries(m *scenario.Manifest, mix *scenario.Mix) (map[string]*entry, error) {
	out := map[string]*entry{}
	for class := range mix.Weights {
		for _, e := range m.ByClass(class) {
			body, err := m.Materialize(e)
			if err != nil {
				return nil, err
			}
			src, err := version.Parse(e.Source)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.Name, err)
			}
			tgt, err := version.Parse(e.Target)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.Name, err)
			}
			req, err := json.Marshal(service.TranslateRequest{Source: e.Source, Target: e.Target, IR: body})
			if err != nil {
				return nil, err
			}
			out[e.Name] = &entry{name: e.Name, src: src, tgt: tgt, body: body, jsonReq: req}
		}
	}
	return out, nil
}

// warmPairs is the sorted set of distinct version pairs of the entries:
// what sirod's -warm synthesizes before the workload starts.
func warmPairs(entries map[string]*entry) []version.Pair {
	seen := map[version.Pair]bool{}
	var out []version.Pair
	for _, e := range entries {
		if p := e.pair(); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Source.Cmp(out[j].Source); c != 0 {
			return c < 0
		}
		return out[i].Target.Before(out[j].Target)
	})
	return out
}

// matrixPairs is every ordered pair of distinct versions, in a fixed
// base order that the seeded permutations index into.
func matrixPairs() []version.Pair {
	var out []version.Pair
	for _, s := range version.All {
		for _, t := range version.All {
			if s != t {
				out = append(out, version.Pair{Source: s, Target: t})
			}
		}
	}
	return out
}

// Phase lengths. The open loop gets two thirds of a run's --seconds and
// the closed loop the last third, each split evenly across the served
// daemons. Each daemon first serves an untimed closed-loop warm-up (at
// most its share of the run). A fresh sirod runs slow while its heap
// grows: without the warm-up, bulk's first 3-second window on each
// daemon had a 25-60% higher p50 than the windows after it.
const (
	openShare    = 2.0 / 3
	closedWarmup = time.Second
	// minMatrixReps gives cold-matrix's medians at least three
	// repetitions to choose from.
	minMatrixReps = 3
	maxMatrixReps = 64
)

// plan is everything a run sends, fixed by (workload, seed, seconds)
// before any request goes out.
type plan struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Open     *scenario.Schedule `json:"open,omitempty"`
	// Round is the closed loop's cycle of entry names (see balancedRound).
	Round []string `json:"round,omitempty"`
	// Matrix holds cold-matrix's per-repetition request orders, as
	// indexes into matrixPairs.
	Matrix [][]int `json:"matrix,omitempty"`
}

// makePlan compiles the run's requests: the open-loop schedule for the
// open phase and the round the closed loop cycles through.
func makePlan(m *scenario.Manifest, w workload, seed int64, seconds int) (*plan, error) {
	p := &plan{Workload: w.name, Seed: seed}
	if w.mix == nil {
		rng := rand.New(rand.NewSource(seed))
		n := len(matrixPairs())
		for range maxMatrixReps {
			p.Matrix = append(p.Matrix, rng.Perm(n))
		}
		return p, nil
	}
	// However short the run, it has a tail percentile (see tailIndex).
	n := max(int(math.Ceil(w.rate*float64(seconds)*openShare)), minBeyond+1)
	sched, err := scenario.Compile(m, *w.mix, seed, n, w.rate)
	if err != nil {
		return nil, err
	}
	for _, it := range sched.Items {
		if (it.Mode == scenario.ModeStream) != w.stream {
			return nil, fmt.Errorf("mix %s compiled %s to mode %q, want stream=%v", w.mix.Name, it.Entry, it.Mode, w.stream)
		}
	}
	p.Open = sched
	if p.Round, err = balancedRound(m, w.mix, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// balancedRound lists every entry of the mix as often, relative to the
// others, as scenario.Compile draws it, in a seeded order. Cycling
// through it gives every closed-loop window the mix's composition: drawn
// at random, the giants in a short stream window vary by about a sixth
// either way, and the window's throughput with them.
func balancedRound(m *scenario.Manifest, mix *scenario.Mix, seed int64) ([]string, error) {
	// Compile draws an entry of class c with chance w_c/W · 1/n_c; with
	// l the least common multiple of the n_c, w_c·l/n_c copies of each
	// are in that proportion and whole.
	classes := make([]string, 0, len(mix.Weights))
	l := 1
	for c, wt := range mix.Weights {
		if wt != math.Trunc(wt) || wt < 1 {
			return nil, fmt.Errorf("mix %s: class %s weight %v is not a whole number", mix.Name, c, wt)
		}
		classes = append(classes, c)
		n := len(m.ByClass(c))
		if n == 0 {
			return nil, fmt.Errorf("mix %s: the corpus has no %s entries", mix.Name, c)
		}
		l = l / gcd(l, n) * n
	}
	sort.Strings(classes)
	var round []string
	for _, c := range classes {
		es := m.ByClass(c)
		copies := int(mix.Weights[c]) * l / len(es)
		for _, e := range es {
			for range copies {
				round = append(round, e.Name)
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// digest is the sha256 of the plan's canonical JSON: equal digests mean
// the same requests in the same order at the same offsets.
func (p *plan) digest() string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("marshal plan: %v", err)) // plain data: cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
