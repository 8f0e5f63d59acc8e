package stats

import (
	"fmt"
	"math"
)

// This file provides the online (single-pass, mergeable) counterparts of the
// descriptive estimators: Welford mean/variance, a fixed-range streaming
// histogram with quantile interpolation, and a binomial counter with Wilson
// score intervals. They back internal/population's study engine, which
// streams millions of synthetic votes through per-cell aggregates so memory
// stays O(cells) instead of O(votes). All three types merge deterministically
// (shard results are combined in shard order), which is what keeps sequential
// and parallel population runs byte-identical.

// Welford accumulates count, mean, and variance in one pass using Welford's
// online algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into this one (Chan et al.'s parallel
// update). Merging in a fixed order is deterministic.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean, or NaN before any observation.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased (n-1) sample variance, or NaN below two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// MeanCI returns the Student-t confidence interval for the mean at the given
// level, the streaming equivalent of MeanCI over the raw samples.
func (w *Welford) MeanCI(level float64) (Interval, error) {
	if w.n < 2 {
		return Interval{}, ErrInsufficientData
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: invalid confidence level %v", level)
	}
	m := w.Mean()
	se := w.StdErr()
	tcrit := StudentTQuantile(1-(1-level)/2, float64(w.n-1))
	return Interval{Point: m, Lo: m - tcrit*se, Hi: m + tcrit*se, Level: level}, nil
}

// StreamHist is a fixed-range equal-width histogram that supports streaming
// insertion, merging, and interpolated quantile queries. Bounded domains
// (the 10..70 rating scale, vote confidences, notice shares) make the fixed
// range exact enough for reporting medians and tail quantiles over millions
// of votes in constant memory; out-of-range observations clamp to the edge
// bins.
type StreamHist struct {
	lo, hi float64
	bins   []int64
	n      int64
}

// NewStreamHist builds a histogram over [lo, hi] with the given bin count.
func NewStreamHist(lo, hi float64, bins int) *StreamHist {
	if hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram range [%g, %g]", lo, hi))
	}
	if bins < 1 {
		bins = 1
	}
	return &StreamHist{lo: lo, hi: hi, bins: make([]int64, bins)}
}

// Init points h at caller-owned bin storage over [lo, hi], zeroing the
// counts — the slab-allocation counterpart of NewStreamHist. A sharded
// engine carves thousands of per-cell histograms out of one backing slice
// this way instead of allocating each separately; the result is
// merge-compatible with NewStreamHist(lo, hi, len(bins)).
func (h *StreamHist) Init(lo, hi float64, bins []int64) {
	if hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram range [%g, %g]", lo, hi))
	}
	if len(bins) < 1 {
		panic("stats: histogram needs at least one bin")
	}
	clear(bins)
	*h = StreamHist{lo: lo, hi: hi, bins: bins}
}

// Add inserts one observation, clamping to the histogram range.
func (h *StreamHist) Add(x float64) {
	i := int(float64(len(h.bins)) * (x - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.n++
}

// Merge adds another histogram's counts. The two must share range and bin
// count.
func (h *StreamHist) Merge(o *StreamHist) {
	if o == nil || o.n == 0 {
		return
	}
	if o.lo != h.lo || o.hi != h.hi || len(o.bins) != len(h.bins) {
		panic("stats: merging incompatible histograms")
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
}

// N returns the number of observations.
func (h *StreamHist) N() int64 { return h.n }

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bin where the target rank falls. NaN for an empty histogram or
// q outside [0, 1].
func (h *StreamHist) Quantile(q float64) float64 {
	if h.n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	target := q * float64(h.n)
	width := (h.hi - h.lo) / float64(len(h.bins))
	var cum float64
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target {
			frac := 0.5
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return h.lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.hi
}

// Median returns the interpolated 0.5 quantile.
func (h *StreamHist) Median() float64 { return h.Quantile(0.5) }

// Binomial counts Bernoulli trials and successes, and reports Wilson score
// confidence intervals on the success proportion — the right interval for
// streamed vote shares, since it behaves at proportions near 0 and 1 where
// the normal approximation collapses.
type Binomial struct {
	successes int64
	trials    int64
}

// Observe records one trial.
func (b *Binomial) Observe(success bool) {
	b.trials++
	if success {
		b.successes++
	}
}

// AddCounts folds pre-aggregated counts (used by merge paths).
func (b *Binomial) AddCounts(successes, trials int64) {
	b.successes += successes
	b.trials += trials
}

// Merge adds another counter.
func (b *Binomial) Merge(o Binomial) { b.AddCounts(o.successes, o.trials) }

// N returns the number of trials.
func (b *Binomial) N() int64 { return b.trials }

// Share returns the observed success proportion, NaN with no trials.
func (b *Binomial) Share() float64 {
	if b.trials == 0 {
		return math.NaN()
	}
	return float64(b.successes) / float64(b.trials)
}

// CI returns the Wilson score interval on the success proportion at the
// given confidence level.
func (b *Binomial) CI(level float64) (Interval, error) {
	if b.trials == 0 {
		return Interval{}, ErrInsufficientData
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: invalid confidence level %v", level)
	}
	z := NormalQuantile(1 - (1-level)/2)
	n := float64(b.trials)
	p := b.Share()
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{Point: p, Lo: lo, Hi: hi, Level: level}, nil
}
