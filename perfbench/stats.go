package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p90 needs at least 100 samples, a p99 at least 1000, a median 21.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank,
// refusing when fewer than minBeyond samples lie above the rank it lands
// on, so a tail figure is never read off a handful of samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	k := rank(p, n)
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[k], nil
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples;
// the tolerance keeps p·n that is a whole number in exact arithmetic (0.9 ×
// 100) from rounding up a rank.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)-1e-9))-1, 0)
}

// minSamples is the fewest samples percentile accepts for p.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-1-rank(p, n) >= minBeyond {
			return n
		}
	}
}

// median is the middle of xs (the mean of the two middle values for an even
// count). It serves small sets of repeated whole measurements — cold
// starts, recoveries — where no tail is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), the rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two samples")
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / median(xs), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
