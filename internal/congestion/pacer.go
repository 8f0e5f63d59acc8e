package congestion

import (
	"math"
	"time"
)

// Pacer is a token-bucket packet pacer modeled after Linux fq: a configured
// rate with an initial burst quantum and a refill quantum. The paper's TCP+
// uses "Linux's defaults of an initial quantum of ten and a refill quantum
// of two segments".
type Pacer struct {
	mss            int
	initialQuantum int // bytes granted as the very first burst
	refillQuantum  int // bucket capacity for subsequent refills

	tokens float64
	last   time.Duration
	inited bool
}

// NewPacer returns a pacer with the Linux fq default quanta (10 and 2
// segments).
func NewPacer(mss int) *Pacer {
	if mss <= 0 {
		mss = DefaultMSS
	}
	return &Pacer{
		mss:            mss,
		initialQuantum: 10 * mss,
		refillQuantum:  2 * mss,
	}
}

// refill credits tokens earned since the last update at the given rate.
// Refill never pushes the balance above the refill quantum, but a balance
// already above it (the initial quantum) is preserved until consumed.
func (p *Pacer) refill(now time.Duration, rate float64) {
	if !p.inited {
		p.tokens = float64(p.initialQuantum)
		p.last = now
		p.inited = true
		return
	}
	dt := (now - p.last).Seconds()
	if dt <= 0 {
		return
	}
	cap := float64(p.refillQuantum)
	if p.tokens < cap {
		p.tokens = math.Min(p.tokens+rate*dt, cap)
	}
	p.last = now
}

// NextSendDelay returns how long the caller must wait before size bytes may
// leave at the given pacing rate (bytes/sec). A zero or negative rate means
// pacing is disabled and the delay is always zero.
func (p *Pacer) NextSendDelay(now time.Duration, size int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	p.refill(now, rate)
	if p.tokens >= float64(size) {
		return 0
	}
	deficit := float64(size) - p.tokens
	return time.Duration(deficit / rate * float64(time.Second))
}

// OnSent consumes tokens for a transmitted packet, crediting the tokens
// earned while the caller waited for its pacing delay.
func (p *Pacer) OnSent(now time.Duration, size int, rate float64) {
	if rate <= 0 {
		return
	}
	p.refill(now, rate)
	p.tokens -= float64(size)
	if floor := -float64(2 * p.mss); p.tokens < floor {
		p.tokens = floor // bound the deficit so one oversized burst cannot stall the flow
	}
}
