package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/version"
)

func TestPlanDigestFollowsSeed(t *testing.T) {
	m := scenario.MustLoad()
	for _, w := range workloads {
		a, err := makePlan(m, w, 7, 4)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := makePlan(m, w, 7, 4)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := makePlan(m, w, 8, 4)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different plan digests", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same plan digest", w.name)
		}
	}
}

func TestTailIndexKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, per, idx int
	}{
		{11, 10, 0},     // smallest sample with ten beyond
		{60, 10, 49},    // under 100: the highest percentile with ten beyond
		{100, 10, 89},   // p90 by nearest rank, exactly ten beyond
		{150, 100, 139}, // under 1,000: the highest percentile with ten beyond
		{999, 100, 988}, // still ten beyond, just short of p99
		{1000, 100, 989},
		{9000, 100, 8909},
		{9000, 10, 8099},
	} {
		idx, err := tailIndex(tc.n, tc.per)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if idx != tc.idx {
			t.Errorf("n=%d per=%d: tail index %d, want %d", tc.n, tc.per, idx, tc.idx)
		}
		if beyond := tc.n - 1 - idx; beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want ≥ %d", tc.n, beyond, minBeyond)
		}
	}
	if _, err := tailIndex(10, 10); err == nil {
		t.Error("n=10: want an error, ten samples cannot have ten beyond a percentile")
	}

	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond // descending: summarize must sort
	}
	s, err := summarizeLatency(ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50Ms != 500.5 || s.P90Ms != 900 || s.P90Q != 0.9 || s.P99Ms != 990 || s.P99Q != 0.99 {
		t.Errorf("summary of 1..1000 ms = %+v, want p50 500.5, p90 900, p99 990", s)
	}
}

func TestBalancedRoundMatchesMix(t *testing.T) {
	m := scenario.MustLoad()
	for _, w := range workloads {
		if w.mix == nil {
			continue
		}
		round, err := balancedRound(m, w.mix, 5)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		again, err := balancedRound(m, w.mix, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(round, again) {
			t.Errorf("%s: same seed, different rounds", w.name)
		}
		// Each entry's share of the round is the chance Compile draws it.
		count := map[string]int{}
		for _, name := range round {
			count[name]++
		}
		total := 0.0
		for _, wt := range w.mix.Weights {
			total += wt
		}
		for class, wt := range w.mix.Weights {
			es := m.ByClass(class)
			for _, e := range es {
				got := float64(count[e.Name]) / float64(len(round))
				if want := wt / total / float64(len(es)); math.Abs(got-want) > 1e-12 {
					t.Errorf("%s: %s is %.4f of the round, Compile draws it %.4f", w.name, e.Name, got, want)
				}
			}
		}
	}
	frac := &scenario.Mix{Name: "frac", Weights: map[string]float64{scenario.ClassHot: 0.5}}
	if _, err := balancedRound(m, frac, 1); err == nil {
		t.Error("a fractional weight built a round")
	}
}

func TestOpenWindowsPartitionSchedule(t *testing.T) {
	m := scenario.MustLoad()
	for _, name := range []string{"hot", "stream"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := makePlan(m, w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tailIndex(len(p.Open.Items), 10); err != nil {
			t.Errorf("%s: a 1-second run: %v", name, err)
		}
		windows, starts := openWindows(p.Open.Items, servedDaemons)
		var joined []scenario.Item
		for k, items := range windows {
			if d := len(items) - len(p.Open.Items)/servedDaemons; d < 0 || d > 1 {
				t.Errorf("%s: window %d has %d of %d requests; windows must be equal", name, k, len(items), len(p.Open.Items))
			}
			if starts[k] != items[0].At() {
				t.Errorf("%s: window %d starts at %v, its first request is due at %v", name, k, starts[k], items[0].At())
			}
			joined = append(joined, items...)
		}
		if !reflect.DeepEqual(joined, p.Open.Items) {
			t.Errorf("%s: the windows do not partition the schedule in order", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %v %v, want 0.75 2.25", q1, q3)
	}
}

func TestLayerResidualsAndSumGate(t *testing.T) {
	us := time.Microsecond
	acc := &layers{sum: map[string]time.Duration{}}
	lay := map[string]time.Duration{
		lCodec: 50 * us, lGet: 100 * us, lKey: 90 * us, lParse: 200 * us,
		lTranslate: 150 * us, lWrite: 100 * us, lSynth: 0,
	}
	acc.requests = 2
	acc.add(lay, 1000*us, 800*us, false)
	acc.add(lay, 1200*us, 1000*us, false)
	r := newReport(config{})
	if err := acc.report(r, 1); err != nil {
		t.Fatalf("sum gate failed on a consistent breakdown: %v", err)
	}
	want := map[string]float64{
		"bench.traced_total_us": 1100,
		"service.http_us":       200, // round trip − handler
		"service.dispatch_us":   300, // handler − (codec+get+parse+translate+write+synth)
		"service.cache_key_us":  90,  // reported, but inside cache_get: not summed again
		"irtext.parse_us":       200,
	}
	for name, v := range want {
		if got := r.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	parts := 0.0
	for _, name := range []string{"service.http_us", "service.dispatch_us", "service.codec_us", "service.cache_get_us",
		"irtext.parse_us", "translator.translate_us", "irtext.write_us"} {
		parts += r.Metrics[name].Value
	}
	if math.Abs(parts-r.Metrics["bench.traced_total_us"].Value) > 1e-9 {
		t.Errorf("layers sum to %v µs, want the traced total %v µs", parts, r.Metrics["bench.traced_total_us"].Value)
	}

	// A layer counted twice pushes the isolated spans past the total.
	twice := &layers{sum: map[string]time.Duration{}, requests: 1}
	lay[lSynth] = 700 * us
	twice.add(lay, 1000*us, 900*us, false)
	if err := twice.report(newReport(config{}), 1); err == nil {
		t.Error("sum gate passed isolated spans of 1300µs inside a 1000µs request")
	}
	if !sumGate(105, 100) || sumGate(106, 100) {
		t.Error("sum gate tolerance is not 5%")
	}
}

func TestGateRejectsWrongOutputs(t *testing.T) {
	v := version.V12_0
	if why := checkTranslation(ret42, ret42, v, v); why != "" {
		t.Fatalf("identity translation rejected: %s", why)
	}
	wrong := strings.Replace(ret42, "add i32 40, 2", "add i32 40, 3", 1)
	if why := checkTranslation(ret42, wrong, v, v); why == "" {
		t.Error("an output returning 43 passed differential validation against a source returning 42")
	}
	if why := checkTranslation(ret42, "define i32 @main(", v, v); why == "" {
		t.Error("an output that does not reparse passed")
	}
	if why := checkRet42(ret42, v); why != "" {
		t.Errorf("ret-42 module rejected: %s", why)
	}
	if why := checkRet42(wrong, v); why == "" {
		t.Error("an output returning 43 passed the ret-42 check")
	}

	g := newGate()
	g.observe("e", ret42)
	g.observe("e", ret42)
	g.observe("e", wrong)
	if wrongN, _ := g.result(); wrongN != 1 {
		t.Errorf("differing repeated responses: %d wrong outputs, want 1", wrongN)
	}
	g = newGate()
	g.observe("e", wrong)
	g.validate(map[string]*entry{"e": {name: "e", src: v, tgt: v, body: ret42}})
	if wrongN, _ := g.result(); wrongN != 1 {
		t.Errorf("injected wrong output: %d wrong outputs, want 1", wrongN)
	}
}

func TestSummarizeGroupsRunsBySet(t *testing.T) {
	dir := t.TempDir()
	for seed, p50 := range map[int64]float64{1: 1, 2: 3, 3: 2} {
		r := newReport(config{workload: "hot", seed: seed})
		r.Metrics["p50_ms"] = metric{p50, "ms"}
		if err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := summarize(&out, []string{dir}); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Sets []runSet `json:"sets"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Sets) != 1 || len(got.Sets[0].Runs) != 3 {
		t.Fatalf("summary %s, want one set of three runs", out.String())
	}
	if s := got.Sets[0].Summary["hot/e2e"]["p50_ms"]; s.N != 3 || s.Median != 2 || s.Spread != 1 {
		t.Errorf("p50 summary %+v, want n 3, median 2, spread (3-1)/2", s)
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("# HELP x y\nsiro_a_total 3\nsiro_b_sum 0.5\nsiro_c{stage=\"parse\"} 9\n")
	if m["siro_a_total"] != 3 || m["siro_b_sum"] != 0.5 || len(m) != 2 {
		t.Errorf("parsed %v, want the two unlabeled samples", m)
	}
}

// TestSmokeWorkloads runs each workload for one second against a real
// sirod, end to end and (but for bulk) traced.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sirod and runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "sirod")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/sirod").CombinedOutput(); err != nil {
		t.Fatalf("building sirod: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.name == "bulk" {
				continue // traces the same JSON path as hot
			}
			start := time.Now()
			cfg := config{workload: w.name, seed: 1, seconds: 1, trace: trace, sirod: bin, conns: runtime.NumCPU()}
			r, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, trace, r.Correct, r.Attempted, r.Failed, r.Extra["failures"])
			}
			t.Logf("%s trace=%v: %v", w.name, trace, time.Since(start).Round(time.Millisecond))
			// The result line carries exactly the metrics BENCHMARK.json
			// declares for the mode, with the declared units; every
			// end-to-end metric is positive.
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, v, d.Unit)
				}
			}
		}
	}
}
