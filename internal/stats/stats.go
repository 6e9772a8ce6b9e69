// Package stats provides the descriptive statistics the paper reports:
// arithmetic means and standard deviations over repeated runs, coefficients
// of variation for the Section V-C variability study, and absolute
// percentage errors for the estimation-accuracy results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 when fewer than two samples are available.
func StdDev(xs []float64) float64 {
	return stdDevAbout(xs, Mean(xs))
}

// stdDevAbout returns the sample standard deviation of xs given its mean
// m: the square root of the sum of squared deviations from m over n-1,
// or 0 when fewer than two samples are available. Callers that already
// hold the mean pass it in instead of walking xs again.
func stdDevAbout(xs []float64, m float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CV returns the coefficient of variation stddev/mean as a fraction
// (0.01 == 1%). A zero mean yields 0 to avoid a meaningless ratio.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(stdDevAbout(xs, m) / m)
}

// AbsPctError returns |estimate-actual|/|actual| in percent.
// A zero actual with a non-zero estimate reports 100%.
func AbsPctError(estimate, actual float64) float64 {
	if actual == 0 {
		if estimate == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(estimate-actual) / math.Abs(actual) * 100
}

// Min returns the smallest value in xs. It panics on an empty slice because
// a minimum of nothing is a caller bug, not a data condition.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Welford accumulates a running mean and variance in one pass. The zero
// value is an empty accumulator ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// CV returns the running coefficient of variation as a fraction.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return math.Abs(w.StdDev() / w.mean)
}

// Summary holds the aggregate of a set of repeated measurements of one
// metric, as the paper reports them (arithmetic mean and standard deviation
// across 20 runs).
type Summary struct {
	Mean   float64
	StdDev float64
	N      int
}

// Summarize reduces repeated measurements to a Summary.
func Summarize(xs []float64) Summary {
	m := Mean(xs)
	return Summary{Mean: m, StdDev: stdDevAbout(xs, m), N: len(xs)}
}

// String renders the summary as "mean ± stddev".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.StdDev)
}
