package main

import (
	"math"
	"testing"
)

func TestMaxPctNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {10_000_000, 99.99},
	} {
		if got := maxPct(c.n); got != c.want {
			t.Errorf("maxPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}, {100, 100}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSummarizeFallsBackToSupportedPercentile(t *testing.T) {
	xs := make([]float64, 500) // enough for p90, not p99
	for i := range xs {
		xs[i] = float64(500 - i) // unsorted input
	}
	s := summarize(xs, 99)
	if s.N != 500 || s.Pct != 90 || s.Tail != 450 || s.P50 != 250 || s.MaxPct != 90 {
		t.Fatalf("summarize(500 samples, want p99) = %+v; want n=500 p50=250 tail p90=450", s)
	}
	big := make([]float64, 20000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	s = summarize(big, 99)
	if s.Pct != 99 || s.Tail != 19800 || s.MaxPct != 99.9 || s.MaxTail != 19980 {
		t.Fatalf("summarize(20000 samples, want p99) = %+v; want tail p99=19800, max p99.9=19980", s)
	}
	if xs[0] != 500 {
		t.Fatal("summarize reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}
