package main

import (
	"math"
	"sort"
	"time"
)

// pctLevels are the percentiles a latency summary may report, lowest
// first.
var pctLevels = []float64{50, 90, 99, 99.9, 99.99}

// maxPct returns the highest level in pctLevels that has at least ten of
// n samples beyond it, or 0 when even the median has fewer than ten
// samples above it. A percentile with fewer samples beyond it is decided
// by a handful of requests and is not reported.
func maxPct(n int) float64 {
	best := 0.0
	for _, p := range pctLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the p-th percentile (0..100) of sorted xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9% of 20000 is 19980, not 19981
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latSummary is a latency series reduced to the figures the benchmark
// reports: the sample count, the median, the percentile closest to the
// one asked for that the sample count supports, and the highest
// percentile it supports at all.
type latSummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	Pct     float64 `json:"pct"`     // the tail percentile reported as Tail
	Tail    float64 `json:"tail_ms"` // latency at Pct
	MaxPct  float64 `json:"max_pct"` // highest percentile with ≥ 10 samples beyond
	MaxTail float64 `json:"max_ms"`  // latency at MaxPct
}

// summarize reduces latencies (in milliseconds) to a latSummary, asking
// for percentile want as the tail. When fewer than ten samples lie
// beyond want, the tail falls back to the highest percentile that has
// ten, and Pct says which one it is.
func summarize(ms []float64, want float64) latSummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	top := maxPct(len(s))
	pct := math.Min(want, top)
	out := latSummary{N: len(s), Pct: pct, MaxPct: top}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 50)
	out.P90 = quantile(s, 90)
	if pct > 0 {
		out.Tail = quantile(s, pct)
	}
	if top > 0 {
		out.MaxTail = quantile(s, top)
	}
	return out
}

// millisSince returns the milliseconds elapsed from t to now.
func millisSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tailBlock is the number of consecutive requests whose p99 is one
// sample of a blocked tail: the smallest count with ten samples beyond
// the 99th percentile.
const tailBlock = 1000

// blockedTail splits xs (latencies in send order) into consecutive
// blocks of tailBlock and returns the median of the blocks' 99th
// percentiles, and the block count. A single slow spell then moves one
// block's figure instead of the whole run's, which keeps the figure
// steady on a host whose speed wanders. With fewer than two blocks it
// returns the p99 of all samples (or the highest percentile they
// support) and 0.
func blockedTail(xs []float64) (float64, int) {
	n := len(xs) / tailBlock
	if n < 2 {
		return summarize(xs, 99).Tail, 0
	}
	tails := make([]float64, n)
	for b := range tails {
		blk := append([]float64(nil), xs[b*tailBlock:(b+1)*tailBlock]...)
		sort.Float64s(blk)
		tails[b] = quantile(blk, 99)
	}
	return median(tails), n
}

// rateWindow is the window of a windowed rate.
const rateWindow = 500 * time.Millisecond

// windowRates returns, for each rateWindow window of d, the work
// completed per second. stamps holds, per sender, each request's
// completion time since the phase started, and weight the work the
// request counts for (0 for one that does not count).
func windowRates(stamps [][]time.Duration, d time.Duration, weight func(s, k int) float64) []float64 {
	n := int(d / rateWindow)
	if n < 1 {
		n = 1
	}
	work := make([]float64, n)
	for s, st := range stamps {
		for k, t := range st {
			if w := int(t / rateWindow); w < n {
				work[w] += weight(s, k)
			}
		}
	}
	for w := range work {
		work[w] /= rateWindow.Seconds()
	}
	return work
}
