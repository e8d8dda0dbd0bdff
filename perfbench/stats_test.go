package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p        float64
		n        int
		want     float64
		wantFail bool
	}{
		{0.5, 20, 10, false},
		{0.5, 19, 0, true},
		{0.9, 100, 90, false},
		{0.9, 99, 0, true},
		{0.99, 1000, 990, false},
		{0.99, 999, 0, true},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.wantFail {
			if err == nil {
				t.Errorf("p%g of %d samples: got %v, want an error", tc.p*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p*100, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestMinSamples(t *testing.T) {
	for p, want := range map[float64]int{0.5: 20, 0.9: 100, 0.95: 200, 0.99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", p, got, want)
		}
		if _, err := percentile(seq(minSamples(p)), p); err != nil {
			t.Errorf("percentile refuses minSamples(%g) samples: %v", p, err)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// Expected values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0, 4.0}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.91, 0.95, 0.97, 1.02, 1.0, 0.99, 0.93, 1.05, 0.96, 0.98}, [3]float64{0.945, 0.975, 1.005}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
}

func TestSpread(t *testing.T) {
	s, err := spread([]float64{0.91, 0.95, 0.97, 1.02, 1.0, 0.99, 0.93, 1.05, 0.96, 0.98})
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.005 - 0.945) / 0.975; math.Abs(s-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", s, want)
	}
}
