// Package stats provides the statistical toolkit used by the study analysis:
// descriptive statistics, Student-t / F / normal distributions, confidence
// intervals, one-way ANOVA, Pearson correlation, and the
// Jarque–Bera normality test.
//
// The paper applies exactly this toolkit: 99% confidence intervals on vote
// means (Fig. 3, Fig. 5), a one-way ANOVA significance screen at the 99% and
// 90% levels (§4.4), and Pearson's correlation between technical metrics and
// user ratings (Fig. 6). Everything is implemented from scratch on top of
// math so the module stays stdlib-only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more samples than
// were supplied (for example a variance of a single observation).
var ErrInsufficientData = errors.New("stats: insufficient data")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	// Kahan summation keeps long, small-magnitude vote vectors accurate.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
// It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN if fewer than two samples are supplied.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the smallest value in xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without mutating the input.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (type-7, the R/NumPy default).
// The input is not mutated. It returns NaN for an empty slice or q outside
// [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Skewness returns the adjusted Fisher–Pearson sample skewness of xs.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// ExcessKurtosis returns the sample excess kurtosis (kurtosis - 3) of xs
// using the unbiased estimator.
func ExcessKurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	g2 := m4/(m2*m2) - 3
	return ((n+1)*g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
}
