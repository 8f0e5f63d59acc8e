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

	bwFilter  []bwSampleEntry  // windowed max of delivery-rate samples
	rttFilter []rttSampleEntry // windowed min of RTT samples

	pacingGain float64
	cwndGain   float64

	fullBw       float64
	fullBwRounds int
	filledPipe   bool

	probeRTTStart time.Duration
	cycleIndex    int
	cycleStart    time.Duration

	cwnd          int
	priorCwnd     int
	minRTTStamp   time.Duration
	idleRestarted bool
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
	var max float64
	for _, e := range b.bwFilter {
		if e.bw > max {
			max = e.bw
		}
	}
	return max
}

// minRTT returns the windowed minimum RTT estimate.
func (b *BBR) minRTT() time.Duration {
	var min time.Duration
	for _, e := range b.rttFilter {
		if min == 0 || e.rtt < min {
			min = e.rtt
		}
	}
	return min
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

// OnPacketSent implements Controller.
func (b *BBR) OnPacketSent(now time.Duration, bytesInFlight, size int) {
	if b.idleRestarted {
		b.idleRestarted = false
	}
}

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

	// Expired samples are compacted to the front of the same backing array
	// (never resliced off it): append then reuses the freed tail capacity,
	// so the steady-state ack path stops allocating once the filters reach
	// their windowed high-water mark.
	if bwSample > 0 {
		b.bwFilter = append(b.bwFilter, bwSampleEntry{round: b.round, bw: bwSample})
		// Expire samples outside the round window.
		cut := 0
		for cut < len(b.bwFilter) && b.bwFilter[cut].round+bbrBtlBwWindowRounds < b.round {
			cut++
		}
		if cut > 0 {
			n := copy(b.bwFilter, b.bwFilter[cut:])
			b.bwFilter = b.bwFilter[:n]
		}
	}
	if rtt > 0 {
		b.rttFilter = append(b.rttFilter, rttSampleEntry{at: now, rtt: rtt})
		cut := 0
		for cut < len(b.rttFilter) && b.rttFilter[cut].at+bbrMinRTTWindow < now {
			cut++
		}
		if cut > 0 {
			n := copy(b.rttFilter, b.rttFilter[cut:])
			b.rttFilter = b.rttFilter[:n]
		}
		if rtt <= b.minRTT() {
			b.minRTTStamp = now
		}
	}

	b.advanceStateMachine(now, bytesInFlight)
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
// window collapse.
func (b *BBR) OnIdleRestart(now time.Duration) {
	b.idleRestarted = true
}
