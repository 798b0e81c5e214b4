package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, one stray sample moves the percentile.
const minBeyond = 10

// tailIndex returns the index, in an ascending sample of n, of the
// (1 − 1/per) percentile by nearest rank (per=10: p90, per=100: p99)
// when at least minBeyond samples lie beyond it, and otherwise of the
// highest percentile that still has minBeyond samples beyond it. The
// arithmetic is integral so the rule holds exactly at every n.
func tailIndex(n, per int) (int, error) {
	if n <= minBeyond {
		return 0, fmt.Errorf("a tail percentile needs more than %d samples, have %d", minBeyond, n)
	}
	return n - 1 - max(minBeyond, n/per), nil
}

// latencySummary is the median and tails of a run's latencies.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P90Q    float64 `json:"p90_quantile"` // the percentile P90Ms reports, as a fraction
	P99Ms   float64 `json:"p99_ms"`
	P99Q    float64 `json:"p99_quantile"`
}

func summarizeLatency(ds []time.Duration) (latencySummary, error) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	i90, err := tailIndex(len(ms), 10)
	if err != nil {
		return latencySummary{}, err
	}
	i99, _ := tailIndex(len(ms), 100)
	n := float64(len(ms))
	return latencySummary{
		Samples: len(ms),
		P50Ms:   median(ms),
		P90Ms:   ms[i90],
		P90Q:    float64(i90+1) / n,
		P99Ms:   ms[i99],
		P99Q:    float64(i99+1) / n,
	}, nil
}

// median of xs (not modified); the mean of the middle pair for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), so spreads printed here match the
// ones any Python reader computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// sumGateTolerance is how far the isolated layer spans may exceed the
// traced total before the breakdown counts as double-counting.
const sumGateTolerance = 0.05

// sumGate reports whether isolated layer time fits inside the traced
// total it was carved from, within sumGateTolerance.
func sumGate(isolated, total time.Duration) bool {
	return float64(isolated) <= (1+sumGateTolerance)*float64(total)
}
