package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance is 4; sample variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceInsufficient(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single sample should be NaN")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v, want 9", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Fatal("out-of-range quantile should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	_ = Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 9 || xs[3] != 3 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1, 1.96, 2.5758, 3} {
		if got := NormalCDF(z) + NormalCDF(-z); !almostEq(got, 1, 1e-12) {
			t.Fatalf("CDF(%v)+CDF(-%v) = %v, want 1", z, z, got)
		}
	}
	if got := NormalCDF(1.959963985); !almostEq(got, 0.975, 1e-6) {
		t.Fatalf("CDF(1.96) = %v, want 0.975", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.5, 0.95, 0.975, 0.995, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEq(got, p, 1e-9) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if NormalQuantile(0.5) != 0 && !almostEq(NormalQuantile(0.5), 0, 1e-12) {
		t.Fatalf("Quantile(0.5) = %v, want 0", NormalQuantile(0.5))
	}
}

func TestStudentTKnownValues(t *testing.T) {
	// t_{0.975, 10} = 2.228139; t_{0.995, 30} = 2.749996 (standard tables).
	cases := []struct{ p, df, want float64 }{
		{0.975, 10, 2.228139},
		{0.995, 30, 2.749996},
		{0.95, 5, 2.015048},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.p, c.df); !almostEq(got, c.want, 1e-4) {
			t.Fatalf("t(%v,%v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestStudentTCDFLargeDFApproachesNormal(t *testing.T) {
	for _, z := range []float64{-2, -1, 0, 1, 2} {
		tt := StudentTCDF(z, 1e6)
		nn := NormalCDF(z)
		if !almostEq(tt, nn, 1e-4) {
			t.Fatalf("t-CDF(%v, 1e6) = %v vs normal %v", z, tt, nn)
		}
	}
}

func TestFCDFKnown(t *testing.T) {
	// F_{0.95}(5, 10) ~= 3.3258 so FCDF(3.3258,5,10) ~= 0.95.
	if got := FCDF(3.3258, 5, 10); !almostEq(got, 0.95, 1e-3) {
		t.Fatalf("FCDF = %v, want 0.95", got)
	}
	if FCDF(-1, 2, 2) != 0 {
		t.Fatal("FCDF of negative should be 0")
	}
}

func TestChiSquareKnown(t *testing.T) {
	// chi2_{0.95}(2) = 5.991.
	if got := ChiSquareCDF(5.991, 2); !almostEq(got, 0.95, 1e-3) {
		t.Fatalf("ChiSquareCDF = %v, want 0.95", got)
	}
}

func TestRegIncompleteBetaBounds(t *testing.T) {
	if RegIncompleteBeta(2, 3, 0) != 0 || RegIncompleteBeta(2, 3, 1) != 1 {
		t.Fatal("incomplete beta endpoint values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := RegIncompleteBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{48, 52, 50, 49, 51, 50, 47, 53}
	iv, err := MeanCI(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(iv.Point, 50, 1e-9) {
		t.Fatalf("point = %v, want 50", iv.Point)
	}
	if !iv.Contains(50) || iv.Contains(200) {
		t.Fatal("CI containment wrong")
	}
	if iv.Lo >= iv.Hi {
		t.Fatal("degenerate interval")
	}
	wide, _ := MeanCI(xs, 0.99)
	narrow, _ := MeanCI(xs, 0.90)
	if wide.Width() <= narrow.Width() {
		t.Fatalf("99%% CI (%v) should be wider than 90%% (%v)", wide.Width(), narrow.Width())
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.99); err == nil {
		t.Fatal("want error for single sample")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("want error for bad level")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{Lo: 0, Hi: 2}
	b := Interval{Lo: 1, Hi: 3}
	c := Interval{Lo: 2.5, Hi: 4}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Fatal("a and c should not overlap")
	}
}

func TestANOVAIdenticalGroups(t *testing.T) {
	g := []float64{1, 2, 3, 4, 5}
	res, err := OneWayANOVA(g, append([]float64(nil), g...))
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-9 {
		t.Fatalf("identical groups should give F~0, got %v", res.F)
	}
	if res.Significant(0.90) {
		t.Fatal("identical groups must not be significant")
	}
}

func TestANOVAClearlySeparated(t *testing.T) {
	a := []float64{1, 1.1, 0.9, 1.05, 0.95}
	b := []float64{10, 10.1, 9.9, 10.05, 9.95}
	res, err := OneWayANOVA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.99) {
		t.Fatalf("separated groups should be significant, got %v", res)
	}
}

func TestANOVAErrors(t *testing.T) {
	if _, err := OneWayANOVA([]float64{1, 2}); err == nil {
		t.Fatal("one group should error")
	}
	if _, err := OneWayANOVA([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("short group should error")
	}
}

func TestANOVAAgreesWithWelchOnTwoBalancedGroups(t *testing.T) {
	// For two equal-variance groups ANOVA F == t^2 (pooled t-test); Welch on
	// balanced equal-variance data is close. Sanity check the relationship.
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 0.5
	}
	res, err := OneWayANOVA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	tt, _, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.F, tt*tt, 0.05*res.F) {
		t.Fatalf("F=%v vs t^2=%v should be close", res.F, tt*tt)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative r = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance should error")
	}
}

func TestJarqueBeraNormalVsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	normal := make([]float64, 2000)
	skewed := make([]float64, 2000)
	for i := range normal {
		normal[i] = rng.NormFloat64()
		skewed[i] = math.Exp(rng.NormFloat64()) // lognormal, heavily skewed
	}
	_, pN, err := JarqueBera(normal)
	if err != nil {
		t.Fatal(err)
	}
	_, pS, err := JarqueBera(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if pN < 0.01 {
		t.Fatalf("normal sample rejected: p=%v", pN)
	}
	if pS > 0.01 {
		t.Fatalf("lognormal sample accepted: p=%v", pS)
	}
}

func TestWelchTTestSameDistribution(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 2, 3, 4, 5}
	tt, p, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tt != 0 || p < 0.99 {
		t.Fatalf("identical samples: t=%v p=%v", tt, p)
	}
}

// Property: adding a constant shifts the mean by that constant and leaves the
// variance unchanged.
func TestPropertyShiftInvariance(t *testing.T) {
	f := func(raw []float64, shiftInt int) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			xs = append(xs, v)
		}
		shift := float64(shiftInt % 1000)
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		return almostEq(Mean(shifted), Mean(xs)+shift, 1e-6) &&
			almostEq(Variance(shifted), Variance(xs), 1e-6*(1+Variance(xs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson correlation is invariant under positive affine transforms
// of either argument.
func TestPropertyPearsonAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = 0.3*xs[i] + rng.NormFloat64()
		}
		r1, err := Pearson(xs, ys)
		if err != nil {
			continue
		}
		a := 0.1 + rng.Float64()*5
		b := rng.NormFloat64() * 10
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		r2, err := Pearson(scaled, ys)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(r1, r2, 1e-9) {
			t.Fatalf("affine invariance violated: %v vs %v", r1, r2)
		}
	}
}

// Property: quantile is monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 50
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.05 {
		qq := math.Min(q, 1)
		v := Quantile(xs, qq)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", qq, v, prev)
		}
		prev = v
	}
}

// Property: the t quantile round-trips through the t CDF.
func TestPropertyStudentTRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 34, 100} {
		for _, p := range []float64{0.01, 0.05, 0.25, 0.5, 0.9, 0.995} {
			q := StudentTQuantile(p, df)
			if got := StudentTCDF(q, df); !almostEq(got, p, 1e-6) {
				t.Fatalf("df=%v p=%v roundtrip=%v", df, p, got)
			}
		}
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !almostEq(got, 0, 1e-12) {
		t.Fatalf("symmetric skewness = %v", got)
	}
}

func TestExcessKurtosisShort(t *testing.T) {
	if !math.IsNaN(ExcessKurtosis([]float64{1, 2, 3})) {
		t.Fatal("kurtosis of 3 samples should be NaN")
	}
}
