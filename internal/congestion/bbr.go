package congestion

import (
	"time"
)

// bbrState enumerates the BBRv1 state machine phases.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "STARTUP"
	case bbrDrain:
		return "DRAIN"
	case bbrProbeBW:
		return "PROBE_BW"
	case bbrProbeRTT:
		return "PROBE_RTT"
	}
	return "?"
}

const (
	// bbrHighGain is 2/ln(2), the startup gain that doubles the sending
	// rate each round trip.
	bbrHighGain = 2.885
	// bbrDrainGain empties the queue Startup built.
	bbrDrainGain = 1 / bbrHighGain
	// bbrCwndGain is the steady-state cwnd gain over the estimated BDP.
	bbrCwndGain = 2.0
	// bbrBtlBwWindowRounds is the max-filter window in round trips.
	bbrBtlBwWindowRounds = 10
	// bbrMinRTTWindow is the min-RTT filter window.
	bbrMinRTTWindow = 10 * time.Second
	// bbrProbeRTTDuration is how long ProbeRTT holds cwnd at the floor.
	bbrProbeRTTDuration = 200 * time.Millisecond
	// bbrStartupGrowthTarget: bandwidth must grow 25% per round to remain
	// in Startup.
	bbrStartupGrowthTarget = 1.25
	// bbrFullBwRounds: rounds without growth before declaring the pipe full.
	bbrFullBwRounds = 3
)

// bbrProbeBWGains is the ProbeBW pacing-gain cycle.
var bbrProbeBWGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type bwSampleEntry struct {
	round uint64
	bw    float64
}

type rttSampleEntry struct {
	at  time.Duration
	rtt time.Duration
}

// BBR implements a faithful state-machine model of BBRv1 (Cardwell et al.):
// windowed max-bandwidth and min-RTT filters, the
// Startup/Drain/ProbeBW/ProbeRTT cycle, pacing-rate and cwnd computation
// from the estimated BDP. BBRv1 famously ignores packet loss as a congestion
// signal, which is what lets it keep the pipe full on the lossy in-flight
// networks (the paper's DA2GC/MSS results where the BBR variants win).
type BBR struct {
	cfg Config

	state      bbrState
	round      uint64        // round-trip counter
	roundStart time.Duration // when the current round began (approximation)

	// The windowed max-bandwidth and min-RTT filters are monotonic deques:
	// the live entries bwFilter[bwHead:] (rttFilter[rttHead:]) are, oldest
	// first, the samples in the window that no later sample matches or
	// beats, so bw strictly falls (rtt strictly rises) from front to back
	// and the front entry is the filter's answer.
	bwFilter  []bwSampleEntry
	bwHead    int
	rttFilter []rttSampleEntry
	rttHead   int

	pacingGain float64
	cwndGain   float64

	fullBw       float64
	fullBwRounds int
	filledPipe   bool

	probeRTTStart time.Duration
	cycleIndex    int
	cycleStart    time.Duration

	cwnd        int
	priorCwnd   int
	minRTTStamp time.Duration
}

// NewBBR returns a BBRv1 controller.
func NewBBR(cfg Config) *BBR {
	return &BBR{
		cfg:        cfg,
		state:      bbrStartup,
		pacingGain: bbrHighGain,
		cwndGain:   bbrHighGain,
		cwnd:       cfg.initialWindowBytes(),
	}
}

// Name implements Controller.
func (b *BBR) Name() string { return "bbr" }

// LossBased implements Controller: BBRv1 does not treat loss as congestion.
func (b *BBR) LossBased() bool { return false }

// State exposes the current phase, for tests and instrumentation.
func (b *BBR) State() string { return b.state.String() }

// CWND implements Controller.
func (b *BBR) CWND() int {
	if b.state == bbrProbeRTT {
		return b.minCwnd()
	}
	bdp := b.bdp()
	if bdp == 0 {
		return b.cwnd
	}
	w := int(b.cwndGain * float64(bdp))
	if w < b.minCwnd() {
		w = b.minCwnd()
	}
	return w
}

func (b *BBR) minCwnd() int { return 4 * b.cfg.mss() }

// InSlowStart implements Controller.
func (b *BBR) InSlowStart() bool { return b.state == bbrStartup }

// btlBw returns the windowed maximum bandwidth estimate in bytes/sec.
func (b *BBR) btlBw() float64 {
	if b.bwHead == len(b.bwFilter) {
		return 0
	}
	return b.bwFilter[b.bwHead].bw
}

// minRTT returns the windowed minimum RTT estimate.
func (b *BBR) minRTT() time.Duration {
	if b.rttHead == len(b.rttFilter) {
		return 0
	}
	return b.rttFilter[b.rttHead].rtt
}

// bdp returns the estimated bandwidth-delay product in bytes.
func (b *BBR) bdp() int {
	bw := b.btlBw()
	rtt := b.minRTT()
	if bw == 0 || rtt == 0 {
		return 0
	}
	return int(bw * rtt.Seconds())
}

// PacingRate implements Controller. BBR always paces.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBw()
	if bw == 0 {
		// No estimate yet: pace the initial window over a nominal 1 ms so
		// the very first flight is effectively unpaced.
		return float64(b.cfg.initialWindowBytes()) / 0.001
	}
	return b.pacingGain * bw
}

// OnPacketSent implements Controller. BBR's model is driven by acks alone.
func (b *BBR) OnPacketSent(now time.Duration, bytesInFlight, size int) {}

// OnAck implements Controller.
func (b *BBR) OnAck(now time.Duration, ackedBytes int, rtt time.Duration, bwSample float64, bytesInFlight int) {
	// ProbeRTT entry is checked against the stamp *before* this ack can
	// refresh it: staleness means "no new minimum for a full window".
	if b.state != bbrProbeRTT && b.minRTTStamp > 0 && now-b.minRTTStamp > bbrMinRTTWindow {
		b.state = bbrProbeRTT
		b.probeRTTStart = now
		b.priorCwnd = b.CWND()
		b.pacingGain = 1
		b.cwndGain = 1
		b.minRTTStamp = now // restart the staleness clock
	}

	// Round accounting: approximate a round as one minRTT (or RTT sample).
	if b.roundStart == 0 || now-b.roundStart >= b.currentRTT(rtt) {
		b.round++
		b.roundStart = now
		b.checkFullPipe()
	}

	// A new sample first evicts the entries it dominates from the back,
	// then the entries that left the window from the front. Expiry is lazy,
	// run only here, so between samples the filters answer exactly as a scan
	// of every sample appended since the last expiry would.
	if bwSample > 0 {
		q, n := b.bwFilter, len(b.bwFilter)
		for n > b.bwHead && q[n-1].bw <= bwSample {
			n--
		}
		h := b.bwHead
		for h < n && q[h].round+bbrBtlBwWindowRounds < b.round {
			h++
		}
		b.bwFilter, b.bwHead = appendDeque(q[:n], h, bwSampleEntry{round: b.round, bw: bwSample})
	}
	if rtt > 0 {
		q, n := b.rttFilter, len(b.rttFilter)
		for n > b.rttHead && q[n-1].rtt >= rtt {
			n--
		}
		h := b.rttHead
		for h < n && q[h].at+bbrMinRTTWindow < now {
			h++
		}
		b.rttFilter, b.rttHead = appendDeque(q[:n], h, rttSampleEntry{at: now, rtt: rtt})
		if rtt <= b.minRTT() {
			b.minRTTStamp = now
		}
	}

	b.advanceStateMachine(now, bytesInFlight)
}

// appendDeque appends e to the deque q[head:] and returns the new slice and
// head. Once the dropped prefix is at least half the slice it is reclaimed
// by moving the live entries to the front of the same backing array, so
// capacity stays bounded by the live window and the steady-state ack path
// allocates nothing.
func appendDeque[T any](q []T, head int, e T) ([]T, int) {
	if head > 0 && head*2 >= len(q) {
		q = q[:copy(q, q[head:])]
		head = 0
	}
	return append(q, e), head
}

func (b *BBR) currentRTT(sample time.Duration) time.Duration {
	if m := b.minRTT(); m > 0 {
		return m
	}
	if sample > 0 {
		return sample
	}
	return 100 * time.Millisecond
}

func (b *BBR) checkFullPipe() {
	if b.filledPipe || b.state != bbrStartup {
		return
	}
	bw := b.btlBw()
	if bw >= b.fullBw*bbrStartupGrowthTarget {
		b.fullBw = bw
		b.fullBwRounds = 0
		return
	}
	b.fullBwRounds++
	if b.fullBwRounds >= bbrFullBwRounds {
		b.filledPipe = true
	}
}

func (b *BBR) advanceStateMachine(now time.Duration, bytesInFlight int) {
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
			b.pacingGain = bbrDrainGain
			b.cwndGain = bbrHighGain
		}
	case bbrDrain:
		if bytesInFlight <= b.bdp() {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		// Advance the gain cycle once per minRTT. Skip ahead out of the
		// 0.75 phase as soon as inflight has drained to the BDP.
		rtt := b.currentRTT(0)
		if now-b.cycleStart >= rtt {
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrProbeBWGains)
			b.cycleStart = now
			b.pacingGain = bbrProbeBWGains[b.cycleIndex]
		}
	case bbrProbeRTT:
		if now-b.probeRTTStart >= bbrProbeRTTDuration {
			if b.filledPipe {
				b.enterProbeBW(now)
			} else {
				b.state = bbrStartup
				b.pacingGain = bbrHighGain
				b.cwndGain = bbrHighGain
			}
		}
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.state = bbrProbeBW
	b.cwndGain = bbrCwndGain
	// Start the cycle at a random-ish but deterministic offset; BBR avoids
	// starting at the 1.25 probe. We start at phase 2 (gain 1).
	b.cycleIndex = 2
	b.cycleStart = now
	b.pacingGain = bbrProbeBWGains[b.cycleIndex]
}

// OnLoss implements Controller. BBRv1 does not react to individual losses —
// this is the core design difference from Cubic that the paper's in-flight
// network results surface.
func (b *BBR) OnLoss(now time.Duration, lostBytes, bytesInFlight int) {}

// OnRTO implements Controller. Even BBRv1 collapses on timeout.
func (b *BBR) OnRTO(now time.Duration) {
	b.cwnd = b.cfg.mss()
}

// OnIdleRestart implements Controller. BBR restarts from the paced rate, no
// window collapse, so there is nothing to do.
func (b *BBR) OnIdleRestart(now time.Duration) {}
