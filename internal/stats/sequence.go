package stats

import (
	"fmt"
	"math"
)

// ConfidenceSequence turns the package's fixed-sample Wilson interval for
// Binomial shares into an always-valid boundary that tolerates optional
// stopping: a caller may peek at the interval after every batch of
// observations and stop the moment a decision locks, and the probability
// that ANY look in the (unbounded) sequence excludes the truth stays below
// the total error budget Alpha.
//
// The construction is alpha-spending over looks with a convergent schedule:
// look k (1-based) is taken at level
//
//	1 − Alpha·(6/π²)/k²
//
// so the spent error sums to Alpha·(6/π²)·Σ 1/k² = Alpha by a union bound.
// Early looks get most of the budget (where sequential designs actually
// stop); late looks pay an O(log n) widening relative to a fixed-sample
// interval, the usual price of anytime validity.
//
// A ConfidenceSequence is a small mutable counter, not a data structure: it
// remembers only how many looks were spent. Determinism contract: the level
// of look k is a pure function of (Alpha, k), so two replicas that take
// looks at the same aggregator states reach bit-identical intervals and
// decisions regardless of worker count or process placement.
type ConfidenceSequence struct {
	alpha float64
	looks int64
}

// spendShare normalizes the 1/k² spending schedule: Σ_{k≥1} 1/k² = π²/6.
const spendShare = 6 / (math.Pi * math.Pi)

// NewConfidenceSequence builds a sequence with total error budget alpha,
// which must lie strictly inside (0, 1).
func NewConfidenceSequence(alpha float64) (ConfidenceSequence, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha >= 1 {
		return ConfidenceSequence{}, fmt.Errorf("stats: confidence sequence alpha %v outside (0, 1)", alpha)
	}
	return ConfidenceSequence{alpha: alpha}, nil
}

// Alpha returns the total error budget.
func (c *ConfidenceSequence) Alpha() float64 { return c.alpha }

// Looks returns how many looks have been spent.
func (c *ConfidenceSequence) Looks() int64 { return c.looks }

// NextLevel spends the next look and returns its confidence level
// 1 − Alpha·(6/π²)/k². Callers that only need the schedule (not the
// interval helper below) drive the counter through this.
func (c *ConfidenceSequence) NextLevel() float64 {
	c.looks++
	k := float64(c.looks)
	return 1 - c.alpha*spendShare/(k*k)
}

// LookBinomial spends one look at a Binomial aggregate and returns the
// always-valid Wilson interval for that look. A zero-trial aggregate
// returns ErrInsufficientData without spending the look.
func (c *ConfidenceSequence) LookBinomial(b Binomial) (Interval, error) {
	if b.N() == 0 {
		return Interval{}, fmt.Errorf("binomial CI: %w", ErrInsufficientData)
	}
	return b.CI(c.NextLevel())
}
