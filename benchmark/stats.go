package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (0 < p ≤ 1) of an ascending
// slice: the smallest sample with at least p of the samples at or below
// it. It returns NaN for an empty slice, so a metric that had no samples
// fails the run instead of reading 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// supportedPercentile returns the highest of p50, p90, p95, p99 and p99.9
// that leaves at least ten of n samples beyond it — the tail a sample of
// that size can resolve — or 0 when even the median has fewer than ten
// samples on its far side.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []struct{ beyond, of int }{{500, 1000}, {100, 1000}, {50, 1000}, {10, 1000}, {1, 1000}} {
		if n*p.beyond/p.of >= 10 {
			best = 1 - float64(p.beyond)/float64(p.of)
		}
	}
	return best
}

// midmean is the mean of the middle half of xs: a quarter of the values
// (rounded to the nearest count, so that three values give their median)
// is dropped at each end. Like the median it ignores the rounds a host
// stall landed in; unlike the median it does not jump between two modes,
// which per-round figures have when a round is short against the garbage
// collector's period.
func midmean(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	cut := (len(s) + 1) / 4
	return sum(s[cut:len(s)-cut]) / float64(len(s)-2*cut)
}

// midmeanOver reduces each round's samples with f and returns the midmean
// of the per-round values. Rounds without samples are skipped.
func midmeanOver(rounds [][]float64, f func(asc []float64) float64) float64 {
	var per []float64
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, f(sorted(r)))
		}
	}
	return midmean(per)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the acceptance check of BENCHMARK.json computes. A single value is
// its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
