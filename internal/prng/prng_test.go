package prng

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds covers the seeding edge cases of the v1 source: zero (which
// it maps to a fixed seed), negatives, and multiples of 2^31-1, which it
// reduces to zero.
var streamSeeds = []int64{
	0, 1, -1, 7, -99, 1 << 40, math.MaxInt64, math.MinInt64,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1<<31 - 2, 1 << 31,
}

// drawOps draws one number of each kind from both streams, so a mismatch
// names the draw where the streams part.
var drawOps = []struct {
	name string
	ref  func(*rand.Rand) float64
	got  func(*Rand) float64
}{
	{"Float64", (*rand.Rand).Float64, (*Rand).Float64},
	{"Int63", func(r *rand.Rand) float64 { return float64(r.Int63()) }, func(r *Rand) float64 { return float64(r.Int63()) }},
	{"Uint64", func(r *rand.Rand) float64 { return float64(r.Uint64()) }, func(r *Rand) float64 { return float64(r.Uint64()) }},
	{"Intn(2)", func(r *rand.Rand) float64 { return float64(r.Intn(2)) }, func(r *Rand) float64 { return float64(r.Intn(2)) }},
	{"Intn(64)", func(r *rand.Rand) float64 { return float64(r.Intn(64)) }, func(r *Rand) float64 { return float64(r.Intn(64)) }},
	{"Intn(160)", func(r *rand.Rand) float64 { return float64(r.Intn(160)) }, func(r *Rand) float64 { return float64(r.Intn(160)) }},
	{"Intn(3)", func(r *rand.Rand) float64 { return float64(r.Intn(3)) }, func(r *Rand) float64 { return float64(r.Intn(3)) }},
	{"Intn(1<<31-1)", func(r *rand.Rand) float64 { return float64(r.Intn(1<<31 - 1)) }, func(r *Rand) float64 { return float64(r.Intn(1<<31 - 1)) }},
	{"Intn(3<<40)", func(r *rand.Rand) float64 { return float64(r.Intn(3 << 40)) }, func(r *Rand) float64 { return float64(r.Intn(3 << 40)) }},
	{"Intn(1<<40)", func(r *rand.Rand) float64 { return float64(r.Intn(1 << 40)) }, func(r *Rand) float64 { return float64(r.Intn(1 << 40)) }},
	{"Int31n(1000)", func(r *rand.Rand) float64 { return float64(r.Int31n(1000)) }, func(r *Rand) float64 { return float64(r.Int31n(1000)) }},
	{"NormFloat64", (*rand.Rand).NormFloat64, (*Rand).NormFloat64},
	{"ExpFloat64", (*rand.Rand).ExpFloat64, (*Rand).ExpFloat64},
}

// compareStreams checks got against a fresh math/rand stream of seed. It
// interleaves every draw kind in a seed-dependent order, over enough draws
// to wrap the 607-entry register several times.
func compareStreams(t *testing.T, label string, seed int64, got *Rand) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	order := rand.New(rand.NewSource(seed + 1))
	for i := range 5000 {
		op := drawOps[order.Intn(len(drawOps))]
		want, have := op.ref(ref), op.got(got)
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("%s seed %d: draw %d (%s) = %v, math/rand draws %v", label, seed, i, op.name, have, want)
		}
	}
}

// TestStreamMatchesMathRand pins Rand to math/rand's v1 stream, draw for
// draw, from a fresh generator and after reseeding a used one.
func TestStreamMatchesMathRand(t *testing.T) {
	reused := New(12345)
	reused.Float64()
	for _, seed := range streamSeeds {
		compareStreams(t, "fresh", seed, New(seed))
		reused.Seed(seed)
		compareStreams(t, "reseeded", seed, reused)
	}
}

func TestSeedAllocatesNothing(t *testing.T) {
	r := New(1)
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		r.NormFloat64()
	}); allocs != 0 {
		t.Fatalf("Seed allocates %.0f objects per call, want 0", allocs)
	}
}

func TestNonPositiveBoundPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for range b.N {
		r.Float64()
	}
}

func BenchmarkMathRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for range b.N {
		r.Float64()
	}
}

func BenchmarkSeed(b *testing.B) {
	r := New(1)
	for i := range b.N {
		r.Seed(int64(i))
	}
}
