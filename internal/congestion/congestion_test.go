package congestion

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

const msTest = time.Millisecond

func TestNewSelectsAlgorithm(t *testing.T) {
	if got := New("cubic", Config{}).Name(); got != "cubic" {
		t.Fatalf("got %q", got)
	}
	if got := New("bbr", Config{}).Name(); got != "bbr" {
		t.Fatalf("got %q", got)
	}
	if got := New("", Config{}).Name(); got != "cubic" {
		t.Fatalf("default should be cubic, got %q", got)
	}
}

func TestInitialWindowTable1(t *testing.T) {
	stock := NewCubic(Config{InitialWindowSegments: 10, MSS: DefaultMSS})
	tuned := NewCubic(Config{InitialWindowSegments: 32, MSS: DefaultMSS})
	if stock.CWND() != 10*DefaultMSS {
		t.Fatalf("stock IW = %d", stock.CWND())
	}
	if tuned.CWND() != 32*DefaultMSS {
		t.Fatalf("tuned IW = %d", tuned.CWND())
	}
}

func TestCubicSlowStartDoublesPerRTT(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000})
	if !c.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	start := c.CWND()
	// Ack a full window: slow start should double it.
	c.OnAck(10*msTest, start, 50*msTest, 0, start)
	if c.CWND() != 2*start {
		t.Fatalf("cwnd = %d, want %d", c.CWND(), 2*start)
	}
}

func TestCubicLossMultiplicativeDecrease(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000})
	c.OnAck(10*msTest, 40_000, 50*msTest, 0, 0) // grow a bit
	before := c.CWND()
	c.OnLoss(20*msTest, 1000, before)
	after := c.CWND()
	want := int(float64(before) * cubicBeta)
	if after != want {
		t.Fatalf("after loss cwnd = %d, want %d", after, want)
	}
	if c.InSlowStart() {
		t.Fatal("loss must exit slow start")
	}
}

func TestCubicLossFloor(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 2, MSS: 1000})
	for i := 0; i < 10; i++ {
		c.OnLoss(time.Duration(i)*msTest, 1000, c.CWND())
	}
	if c.CWND() < 2*1000 {
		t.Fatalf("cwnd fell below 2 MSS: %d", c.CWND())
	}
}

func TestCubicRTOCollapse(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 32, MSS: 1000})
	c.OnRTO(msTest)
	if c.CWND() != 1000 {
		t.Fatalf("post-RTO cwnd = %d, want 1 MSS", c.CWND())
	}
}

func TestCubicGrowthAfterLossIsConcaveThenConvex(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000})
	// Build up a window then lose.
	c.OnAck(10*msTest, 100_000, 40*msTest, 0, 0)
	c.OnLoss(50*msTest, 1000, c.CWND())
	wAfterLoss := c.CWND()
	// Feed acks over simulated time; cwnd should recover toward wMax.
	now := 60 * msTest
	var sizes []int
	for i := 0; i < 50; i++ {
		c.OnAck(now, 10_000, 40*msTest, 0, 0)
		sizes = append(sizes, c.CWND())
		now += 40 * msTest
	}
	if sizes[len(sizes)-1] <= wAfterLoss {
		t.Fatalf("cubic did not grow after loss: %d -> %d", wAfterLoss, sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("cwnd decreased without loss at step %d: %v", i, sizes[i-1:i+1])
		}
	}
}

func TestCubicFastConvergence(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000})
	c.OnAck(10*msTest, 200_000, 40*msTest, 0, 0)
	c.OnLoss(50*msTest, 1000, c.CWND())
	firstWMax := c.wMax
	// Second loss at a lower window: wMax should be scaled below cwnd.
	c.OnLoss(90*msTest, 1000, c.CWND())
	if c.wMax >= firstWMax {
		t.Fatalf("fast convergence should lower wMax: %v -> %v", firstWMax, c.wMax)
	}
}

func TestCubicIdleRestart(t *testing.T) {
	stock := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000, SlowStartAfterIdle: true})
	tuned := NewCubic(Config{InitialWindowSegments: 32, MSS: 1000, SlowStartAfterIdle: false})
	stock.OnAck(10*msTest, 100_000, 40*msTest, 0, 0)
	tuned.OnAck(10*msTest, 100_000, 40*msTest, 0, 0)
	sBefore, tBefore := stock.CWND(), tuned.CWND()
	stock.OnIdleRestart(time.Second)
	tuned.OnIdleRestart(time.Second)
	if stock.CWND() != 10*1000 {
		t.Fatalf("stock should collapse to IW after idle, got %d (was %d)", stock.CWND(), sBefore)
	}
	if tuned.CWND() != tBefore {
		t.Fatalf("tuned must not collapse after idle: %d -> %d", tBefore, tuned.CWND())
	}
}

func TestCubicPacingRateRatio(t *testing.T) {
	c := NewCubic(Config{InitialWindowSegments: 10, MSS: 1000})
	if c.PacingRate() != 0 {
		t.Fatal("pacing disabled by default")
	}
	c.EnablePacing()
	if c.PacingRate() != 0 {
		t.Fatal("no srtt yet -> no rate")
	}
	c.OnAck(10*msTest, 1000, 100*msTest, 0, 0)
	rate := c.PacingRate()
	wantBase := float64(c.CWND()) / 0.1
	if rate < 1.9*wantBase || rate > 2.1*wantBase {
		t.Fatalf("slow-start pacing rate = %v, want ~2x %v", rate, wantBase)
	}
	c.OnLoss(20*msTest, 1000, c.CWND()) // exit slow start
	rate = c.PacingRate()
	wantBase = float64(c.CWND()) / 0.1
	if rate < 1.1*wantBase || rate > 1.3*wantBase {
		t.Fatalf("CA pacing rate = %v, want ~1.2x %v", rate, wantBase)
	}
}

func driveBBR(b *BBR, rounds int, bw float64, rtt time.Duration) time.Duration {
	now := rtt
	for i := 0; i < rounds; i++ {
		acked := int(bw * rtt.Seconds())
		if acked < 1000 {
			acked = 1000
		}
		b.OnAck(now, acked, rtt, bw, acked)
		now += rtt
	}
	return now
}

func TestBBRStartupExitsOnPlateau(t *testing.T) {
	b := NewBBR(Config{InitialWindowSegments: 32, MSS: 1460})
	if !b.InSlowStart() {
		t.Fatal("BBR starts in STARTUP")
	}
	// Constant bandwidth: growth stops, should leave startup within a few
	// rounds and eventually reach PROBE_BW.
	driveBBR(b, 30, 1e6, 50*msTest)
	if b.State() == "STARTUP" {
		t.Fatalf("still in STARTUP after plateau, state=%s", b.State())
	}
	if b.State() != "PROBE_BW" && b.State() != "DRAIN" {
		t.Fatalf("unexpected state %s", b.State())
	}
}

func TestBBRBtlBwTracksMax(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	driveBBR(b, 5, 2e6, 50*msTest)
	if got := b.btlBw(); got != 2e6 {
		t.Fatalf("btlBw = %v, want 2e6", got)
	}
	// A higher sample raises the estimate immediately.
	b.OnAck(time.Second, 100_000, 50*msTest, 3e6, 100_000)
	if got := b.btlBw(); got != 3e6 {
		t.Fatalf("btlBw = %v, want 3e6", got)
	}
}

func TestBBRBtlBwExpiresOldSamples(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	now := driveBBR(b, 3, 5e6, 50*msTest)
	// Then a long run of lower-bandwidth rounds; old max should expire after
	// the 10-round window.
	for i := 0; i < 20; i++ {
		b.OnAck(now, 50_000, 50*msTest, 1e6, 50_000)
		now += 50 * msTest
	}
	if got := b.btlBw(); got != 1e6 {
		t.Fatalf("stale max not expired: %v", got)
	}
}

// naiveBBRFilters is the scan-everything model of BBR's windowed filters:
// every sample appended since the last expiry, expired by the same lazy
// prefix rules, answered by a full scan.
type naiveBBRFilters struct {
	bw  []bwSampleEntry
	rtt []rttSampleEntry
}

func (f *naiveBBRFilters) onAck(round uint64, now, rtt time.Duration, bw float64) (expired int) {
	if bw > 0 {
		f.bw = append(f.bw, bwSampleEntry{round: round, bw: bw})
		for len(f.bw) > 0 && f.bw[0].round+bbrBtlBwWindowRounds < round {
			f.bw = f.bw[1:]
			expired++
		}
	}
	if rtt > 0 {
		f.rtt = append(f.rtt, rttSampleEntry{at: now, rtt: rtt})
		for len(f.rtt) > 0 && f.rtt[0].at+bbrMinRTTWindow < now {
			f.rtt = f.rtt[1:]
			expired++
		}
	}
	return expired
}

// deques returns what the monotonic deques must hold: the window's samples
// that no later sample matches or beats, oldest first.
func (f *naiveBBRFilters) deques() ([]bwSampleEntry, []rttSampleEntry) {
	var bw []bwSampleEntry
	for i, e := range f.bw {
		kept := true
		for _, later := range f.bw[i+1:] {
			kept = kept && later.bw < e.bw
		}
		if kept {
			bw = append(bw, e)
		}
	}
	var rtt []rttSampleEntry
	for i, e := range f.rtt {
		kept := true
		for _, later := range f.rtt[i+1:] {
			kept = kept && later.rtt > e.rtt
		}
		if kept {
			rtt = append(rtt, e)
		}
	}
	return bw, rtt
}

func (f *naiveBBRFilters) max() float64 {
	var max float64
	for _, e := range f.bw {
		if e.bw > max {
			max = e.bw
		}
	}
	return max
}

func (f *naiveBBRFilters) min() time.Duration {
	var min time.Duration
	for _, e := range f.rtt {
		if min == 0 || e.rtt < min {
			min = e.rtt
		}
	}
	return min
}

// TestBBRFiltersMatchNaive drives random ack sequences — repeated equal
// samples, acks without samples, gaps longer than the 10 s min-RTT window
// and runs of sample-less rounds — through the deque filters. After every
// ack the deques must hold exactly the non-dominated samples of the naive
// window, and the controller must agree with a reference controller whose
// filters are rebuilt from the naive window around every ack, on btlBw,
// minRTT, CWND, PacingRate and State.
func TestBBRFiltersMatchNaive(t *testing.T) {
	bws := []float64{5e5, 1e6, 2e6, 2e6, 3e6}
	rtts := []time.Duration{20 * msTest, 30 * msTest, 40 * msTest, 40 * msTest, 80 * msTest}
	var expired, deepest int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InitialWindowSegments: 10, MSS: 1460}
		b, ref := NewBBR(cfg), NewBBR(cfg)
		var naive naiveBBRFilters
		load := func() {
			ref.bwFilter, ref.rttFilter = naive.deques()
			ref.bwHead, ref.rttHead = 0, 0
		}
		now := time.Duration(0)
		quiet := 0 // remaining acks of a sample-less run
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 3:
				now += 10*time.Second + time.Duration(rng.Intn(5000))*msTest
			case r < 10:
				// same instant as the previous ack
			default:
				now += time.Duration(1+rng.Intn(90)) * msTest
			}
			if quiet == 0 && rng.Intn(50) == 0 {
				quiet = 5 + rng.Intn(15)
			}
			var bw float64
			var rtt time.Duration
			if quiet > 0 {
				quiet--
				now += 100 * msTest // a round passes per ack
			} else {
				if rng.Intn(6) > 0 {
					bw = bws[rng.Intn(len(bws))]
				}
				if rng.Intn(6) > 0 {
					rtt = rtts[rng.Intn(len(rtts))]
				}
			}
			inFlight := rng.Intn(200_000)

			load()
			b.OnAck(now, 1460, rtt, bw, inFlight)
			ref.OnAck(now, 1460, rtt, bw, inFlight)
			expired += naive.onAck(ref.round, now, rtt, bw)
			load()

			wantBw, wantRTT := naive.deques()
			gotBw, gotRTT := b.bwFilter[b.bwHead:], b.rttFilter[b.rttHead:]
			if !slices.Equal(gotBw, wantBw) || !slices.Equal(gotRTT, wantRTT) {
				t.Fatalf("seed %d step %d: deques bw %v rtt %v, want %v and %v",
					seed, step, gotBw, gotRTT, wantBw, wantRTT)
			}
			deepest = max(deepest, len(gotBw), len(gotRTT))
			if b.btlBw() != naive.max() || b.minRTT() != naive.min() {
				t.Fatalf("seed %d step %d: btlBw %v minRTT %v, naive %v and %v",
					seed, step, b.btlBw(), b.minRTT(), naive.max(), naive.min())
			}
			if b.CWND() != ref.CWND() || b.PacingRate() != ref.PacingRate() || b.State() != ref.State() {
				t.Fatalf("seed %d step %d: cwnd %d rate %v state %s, reference %d %v %s",
					seed, step, b.CWND(), b.PacingRate(), b.State(), ref.CWND(), ref.PacingRate(), ref.State())
			}
		}
	}
	if expired == 0 || deepest < 3 {
		t.Fatalf("sequences too tame: %d expiries, deepest deque %d", expired, deepest)
	}
}

func TestBBRCwndIsGainTimesBDP(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	driveBBR(b, 40, 2e6, 100*msTest) // settle into PROBE_BW
	if b.State() != "PROBE_BW" {
		t.Fatalf("state = %s", b.State())
	}
	bdp := 2e6 * 0.1
	want := int(bbrCwndGain * bdp)
	got := b.CWND()
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("cwnd = %d, want ~%d", got, want)
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	driveBBR(b, 40, 2e6, 100*msTest)
	before := b.CWND()
	for i := 0; i < 50; i++ {
		b.OnLoss(5*time.Second, 1460, before)
	}
	if b.CWND() != before {
		t.Fatalf("BBRv1 must ignore loss: %d -> %d", before, b.CWND())
	}
}

func TestBBRRTOCollapses(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	driveBBR(b, 40, 2e6, 100*msTest)
	b.OnRTO(10 * time.Second)
	if b.cwnd != 1460 {
		t.Fatalf("post-RTO internal cwnd = %d", b.cwnd)
	}
}

func TestBBRPacingGainCycles(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	now := driveBBR(b, 40, 2e6, 100*msTest)
	if b.State() != "PROBE_BW" {
		t.Fatalf("state = %s", b.State())
	}
	seen := map[float64]bool{}
	for i := 0; i < 16; i++ {
		b.OnAck(now, 25_000, 100*msTest, 2e6, 25_000)
		seen[b.pacingGain] = true
		now += 100 * msTest
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Fatalf("gain cycle incomplete: %v", seen)
	}
}

func TestBBRPacingRateBeforeEstimate(t *testing.T) {
	b := NewBBR(Config{InitialWindowSegments: 32, MSS: 1460})
	if b.PacingRate() <= 0 {
		t.Fatal("BBR must always provide a pacing rate")
	}
}

func TestBBRProbeRTTOnStaleMin(t *testing.T) {
	b := NewBBR(Config{MSS: 1460})
	now := driveBBR(b, 40, 2e6, 100*msTest)
	// Ack far in the future with an RTT above the recorded minimum: the
	// stamp (last refreshed during driveBBR) is now stale by > 10 s.
	now += bbrMinRTTWindow + 2*time.Second
	b.OnAck(now, 25_000, 200*msTest, 2e6, 25_000)
	if b.State() != "PROBE_RTT" {
		t.Fatalf("state = %s, want PROBE_RTT", b.State())
	}
	if b.CWND() != 4*1460 {
		t.Fatalf("ProbeRTT cwnd = %d, want 4 MSS", b.CWND())
	}
	// After the dwell, it returns to PROBE_BW.
	b.OnAck(now+bbrProbeRTTDuration+msTest, 25_000, 100*msTest, 2e6, 25_000)
	if b.State() != "PROBE_BW" {
		t.Fatalf("state after dwell = %s", b.State())
	}
}

func TestPacerUnlimitedWhenNoRate(t *testing.T) {
	p := NewPacer(1460)
	if d := p.NextSendDelay(0, 1460, 0); d != 0 {
		t.Fatalf("no-rate delay = %v", d)
	}
}

func TestPacerInitialQuantumBurst(t *testing.T) {
	p := NewPacer(1000)
	rate := 1e6 // bytes/sec
	// First 10 segments (initial quantum) go out immediately.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		if d := p.NextSendDelay(now, 1000, rate); d != 0 {
			t.Fatalf("segment %d delayed %v within initial quantum", i, d)
		}
		p.OnSent(now, 1000, rate)
	}
	// The 11th must wait.
	if d := p.NextSendDelay(now, 1000, rate); d <= 0 {
		t.Fatal("11th segment should be paced")
	}
}

func TestPacerConvergesToRate(t *testing.T) {
	p := NewPacer(1000)
	rate := 2e6 // 2 MB/s -> 0.5 ms per 1000 B
	now := time.Duration(0)
	var sent int
	for sent < 100 {
		d := p.NextSendDelay(now, 1000, rate)
		now += d
		p.OnSent(now, 1000, rate)
		sent++
	}
	// 100 KB at 2 MB/s = 50 ms, minus the initial 10 KB burst = 45 ms.
	elapsed := now.Seconds()
	if elapsed < 0.040 || elapsed > 0.055 {
		t.Fatalf("elapsed = %v s, want ~0.045", elapsed)
	}
}
