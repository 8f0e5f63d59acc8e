// Package prng is the participant models' random stream: a concrete
// generator whose every draw is bit-identical to the same call on
// rand.New(rand.NewSource(seed)) from math/rand.
//
// The population engine draws tens of millions of numbers per run, and a
// math/rand draw goes through the rand.Source interface on every call.
// Rand reimplements the v1 source, Go's additive lagged-Fibonacci
// generator x[n] = x[n-607] + x[n-273] (mod 2^64), together with the v1
// Float64, Int63, Int31n and Intn, as concrete methods the compiler can
// inline. NormFloat64 and ExpFloat64 keep math/rand's ziggurat code: they
// run on a *rand.Rand built over the same Rand (which is a rand.Source64),
// so they share its state and the order of draws is unchanged.
//
// Seeding keeps math/rand's seeding too, without copying its table of 607
// constants: Seed seeds a reused math/rand source, reads the 607 values
// the source returns first, and rebuilds the register those values came
// from by undoing the generator's writes (see Seed).
package prng

import "math/rand"

const (
	regLen = 607 // register length: the generator's long lag
	regTap = 273 // the short lag
	mask63 = 1<<63 - 1
)

// Rand is a math/rand-v1-compatible random stream. It is not safe for
// concurrent use.
type Rand struct {
	vec       [regLen]int64
	tap, feed int
	// seeder is the math/rand source Seed reads a fresh register from.
	seeder rand.Source64
	// std is math/rand's Rand over this one, for the ziggurat draws.
	std *rand.Rand
}

// New returns a stream in the state rand.New(rand.NewSource(seed)) starts
// in.
func New(seed int64) *Rand {
	r := &Rand{seeder: rand.NewSource(seed).(rand.Source64)}
	r.std = rand.New(r)
	r.Seed(seed)
	return r
}

// Seed resets the stream to the state rand.NewSource(seed) starts in. It
// allocates nothing.
//
// A v1 source seeded with seed starts with some register vec, tap = 0 and
// feed = 334. Its k-th draw steps tap and feed down by one (mod 607),
// writes vec[feed] += vec[tap] and returns the new vec[feed]. Over the
// first 607 draws feed visits every index once, so after them vec[feed_k]
// holds draw k. Seed therefore writes the seeder's first 607 draws to
// their feed positions and then undoes the draws in reverse order,
// vec[feed_k] = draw_k - vec[tap_k]: when draw k is undone, vec[tap_k] is
// back at the value it had when draw k was made, because tap_k is never
// feed_k.
func (r *Rand) Seed(seed int64) {
	r.seeder.Seed(seed)
	tap, feed := 0, regLen-regTap
	for range regLen {
		tap, feed = prev(tap), prev(feed)
		r.vec[feed] = int64(r.seeder.Uint64())
	}
	for range regLen {
		r.vec[feed] -= r.vec[tap]
		tap, feed = next(tap), next(feed)
	}
	r.tap, r.feed = tap, feed
}

func prev(i int) int {
	if i == 0 {
		return regLen - 1
	}
	return i - 1
}

func next(i int) int {
	if i == regLen-1 {
		return 0
	}
	return i + 1
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (r *Rand) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += regLen
	}
	if feed < 0 {
		feed += regLen
	}
	r.tap, r.feed = tap, feed
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & mask63) }

func (r *Rand) int31() int32 { return int32(r.Int63() >> 32) }

// Int31n returns, as an int32, a non-negative pseudo-random number in
// [0,n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("prng: invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // a power of two: mask
		return r.int31() & (n - 1)
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := r.int31()
	for v > limit {
		v = r.int31()
	}
	return v % n
}

// int63n is math/rand's Int63n, which Intn uses for n >= 2^31.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 { // a power of two: mask
		return r.Int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// Intn returns, as an int, a non-negative pseudo-random number in [0,n).
// It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// Float64 returns, as a float64, a pseudo-random number in [0.0,1.0).
func (r *Rand) Float64() float64 {
	for {
		// math/rand's v1 formula: an Int63 that rounds up to 1 is redrawn.
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, drawn as math/rand draws it.
func (r *Rand) NormFloat64() float64 { return r.std.NormFloat64() }

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// drawn as math/rand draws it.
func (r *Rand) ExpFloat64() float64 { return r.std.ExpFloat64() }
