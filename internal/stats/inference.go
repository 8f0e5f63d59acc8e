package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64 // the estimate (usually the mean)
	Lo    float64 // lower bound
	Hi    float64 // upper bound
	Level float64 // confidence level, e.g. 0.99
}

// Width returns the full width of the interval.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the interval (inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Overlaps reports whether two intervals share any point. The paper uses
// CI overlap as the visual significance argument in Fig. 5.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] @%g%%", iv.Point, iv.Lo, iv.Hi, iv.Level*100)
}

// MeanCI returns the Student-t confidence interval for the mean of xs at the
// given confidence level (e.g. 0.99 for the paper's 99% intervals).
func MeanCI(xs []float64, level float64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, ErrInsufficientData
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: invalid confidence level %v", level)
	}
	m := Mean(xs)
	se := StdErr(xs)
	df := float64(len(xs) - 1)
	tcrit := StudentTQuantile(1-(1-level)/2, df)
	return Interval{Point: m, Lo: m - tcrit*se, Hi: m + tcrit*se, Level: level}, nil
}

// ANOVAResult holds the outcome of a one-way analysis of variance.
type ANOVAResult struct {
	F        float64 // F statistic: between-group MS / within-group MS
	P        float64 // p-value: P(F_{dfB,dfW} > F)
	DFB, DFW int     // between / within degrees of freedom
	Groups   int
	N        int
}

// Significant reports whether the result is significant at the given level
// (e.g. level 0.99 means p < 0.01).
func (r ANOVAResult) Significant(level float64) bool {
	return r.P < (1 - level)
}

func (r ANOVAResult) String() string {
	return fmt.Sprintf("F(%d,%d)=%.3f p=%.4f", r.DFB, r.DFW, r.F, r.P)
}

// OneWayANOVA performs a one-way ANOVA over the supplied groups, as the
// paper does to screen for protocol/network settings that users rate
// significantly differently (§4.4).
func OneWayANOVA(groups ...[]float64) (ANOVAResult, error) {
	k := len(groups)
	if k < 2 {
		return ANOVAResult{}, fmt.Errorf("stats: ANOVA needs >= 2 groups, got %d", k)
	}
	n := 0
	for i, g := range groups {
		if len(g) < 2 {
			return ANOVAResult{}, fmt.Errorf("stats: ANOVA group %d has %d < 2 samples: %w", i, len(g), ErrInsufficientData)
		}
		n += len(g)
	}
	var grand float64
	for _, g := range groups {
		grand += Sum(g)
	}
	grand /= float64(n)

	var ssb, ssw float64
	for _, g := range groups {
		gm := Mean(g)
		d := gm - grand
		ssb += float64(len(g)) * d * d
		for _, x := range g {
			e := x - gm
			ssw += e * e
		}
	}
	dfb := k - 1
	dfw := n - k
	msb := ssb / float64(dfb)
	msw := ssw / float64(dfw)
	var f float64
	if msw == 0 {
		if msb == 0 {
			f = 0
		} else {
			f = math.Inf(1)
		}
	} else {
		f = msb / msw
	}
	p := FSurvival(f, float64(dfb), float64(dfw))
	if math.IsInf(f, 1) {
		p = 0
	}
	return ANOVAResult{F: f, P: p, DFB: dfb, DFW: dfw, Groups: k, N: n}, nil
}

// Pearson returns Pearson's product-moment correlation coefficient between
// xs and ys. The paper chooses Pearson over a rank correlation because it
// measures how well the *linearity* of a technical metric reflects user
// votes (Fig. 6).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// JarqueBera tests the null hypothesis that xs is normally distributed.
// It returns the JB statistic and its asymptotic chi-square(2) p-value.
// The paper reports lab and µWorker votes as normally distributed while the
// Internet group is not; this is the test the pipeline uses for that split.
func JarqueBera(xs []float64) (statistic, p float64, err error) {
	n := float64(len(xs))
	if n < 8 {
		return 0, 0, ErrInsufficientData
	}
	s := Skewness(xs)
	k := ExcessKurtosis(xs)
	jb := n / 6 * (s*s + k*k/4)
	return jb, 1 - ChiSquareCDF(jb, 2), nil
}

// WelchTTest performs Welch's unequal-variance two-sample t-test and returns
// the two-sided p-value. Used by the per-website significance drill-down
// ("Where it Makes a Difference", §4.4).
func WelchTTest(a, b []float64) (t, p float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, ErrInsufficientData
	}
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa2, sb2 := va/na, vb/nb
	se := math.Sqrt(sa2 + sb2)
	if se == 0 {
		if Mean(a) == Mean(b) {
			return 0, 1, nil
		}
		return math.Inf(1), 0, nil
	}
	t = (Mean(a) - Mean(b)) / se
	// Welch–Satterthwaite degrees of freedom.
	df := (sa2 + sb2) * (sa2 + sb2) / (sa2*sa2/(na-1) + sb2*sb2/(nb-1))
	p = 2 * (1 - StudentTCDF(math.Abs(t), df))
	return t, p, nil
}
