package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN, so that a metric without samples fails the run")
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMidmean(t *testing.T) {
	// 8 values: the lowest two and highest two go, the middle four stay.
	if got := midmean([]float64{100, 1, 4, 5, 6, 7, 0, 1000}); got != 5.5 {
		t.Errorf("midmean = %v, want 5.5", got)
	}
	// Three values give their median, two their mean.
	if got := midmean([]float64{1, 2, 60}); got != 2 {
		t.Errorf("midmean of three = %v, want 2", got)
	}
	if got := midmean([]float64{1, 2}); got != 1.5 {
		t.Errorf("midmean of two = %v, want 1.5", got)
	}
	if !math.IsNaN(midmean(nil)) {
		t.Error("midmean of nothing must be NaN")
	}
}

func TestMidmeanOverRounds(t *testing.T) {
	rounds := [][]float64{
		{3, 1, 2},     // max 3
		nil,           // a RunBatch round: no per-job samples, skipped
		{10, 30, 20},  // max 30
		{5, 4},        // max 5
		{7},           // max 7
		{900, 1, 800}, // a stalled round: max 900, dropped as the top quarter
	}
	maxOf := func(asc []float64) float64 { return asc[len(asc)-1] }
	// per-round maxima 3 5 7 30 900 → one dropped at each end → mean(5, 7, 30)
	if got := midmeanOver(rounds, maxOf); got != 14 {
		t.Errorf("midmeanOver = %v, want 14", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) → [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5})
	if q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one = %v %v %v, want 5 5 5", q1, q2, q3)
	}
}
