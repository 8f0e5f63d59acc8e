package simnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestScheduleTieFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active")
	}
	tm.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("cancelled timer still active")
	}
}

// TestCancelRemovesEvent pins eager cancellation: a cancelled event leaves
// the heap at once and its node goes straight back to the pool, so the
// cancel-and-rearm pattern of a retransmission timer keeps the heap empty
// and the pool at one slab.
func TestCancelRemovesEvent(t *testing.T) {
	s := New(1)
	var tm Timer
	for i := 0; i < 1000; i++ {
		tm.Cancel()
		tm = s.ScheduleArg(time.Second, nopEvent, nil)
	}
	tm.Cancel()
	if len(s.events) != 0 {
		t.Fatalf("%d events queued after cancelling every timer, want 0", len(s.events))
	}
	if len(s.nodes) != 32 || len(s.free) != len(s.nodes) {
		t.Fatalf("pool holds %d nodes, %d free; want one slab, all free", len(s.nodes), len(s.free))
	}
}

// heapHarness drives a Simulator with random schedules, cancels and
// RunUntil calls, and keeps the reference model: each event's (at, seq)
// key, with seq the schedule order, and whether it was cancelled while
// pending.
type heapHarness struct {
	t      *testing.T
	s      *Simulator
	rng    *rand.Rand
	events []*refEvent // by schedule order
	fired  []int       // event ids in firing order
}

type refEvent struct {
	h         *heapHarness
	id        int
	at        time.Duration
	timer     Timer
	fired     bool
	cancelled bool
}

func refFire(a any) {
	e := a.(*refEvent)
	h := e.h
	if e.fired || e.cancelled {
		h.t.Fatalf("event %d fired again or after its cancel", e.id)
	}
	if h.s.Now() != e.at {
		h.t.Fatalf("event %d fired at %v, scheduled for %v", e.id, h.s.Now(), e.at)
	}
	e.fired = true
	h.fired = append(h.fired, e.id)
	if h.rng.Intn(3) == 0 {
		h.cancelRandom()
	}
	if h.rng.Intn(2) == 0 {
		h.schedule()
	}
}

func (h *heapHarness) schedule() {
	now := h.s.Now()
	at := now + time.Duration(h.rng.Intn(20))*time.Millisecond
	if h.rng.Intn(8) == 0 {
		at = now - time.Millisecond // in the past: clamped to now
	}
	e := &refEvent{h: h, id: len(h.events), at: max(at, now)}
	e.timer = h.s.ScheduleArgAt(at, refFire, e)
	h.events = append(h.events, e)
}

// cancelRandom cancels any event ever scheduled: a pending one anywhere in
// the heap, or one already fired or cancelled, whose stale handle may point
// at a recycled node and must not touch it.
func (h *heapHarness) cancelRandom() {
	if len(h.events) == 0 {
		return
	}
	e := h.events[h.rng.Intn(len(h.events))]
	pending := !e.fired && !e.cancelled
	if e.timer.Active() != pending {
		h.t.Fatalf("event %d: Active() = %v, want %v", e.id, e.timer.Active(), pending)
	}
	e.timer.Cancel()
	if pending {
		e.cancelled = true
	}
}

// checkHeap verifies the heap order, every queued node's recorded position,
// and that each node is either queued or free.
func (h *heapHarness) checkHeap() {
	s := h.s
	for i, e := range s.events {
		if got := s.nodes[e.idx].pos; int(got) != i {
			h.t.Fatalf("node %d records heap position %d, is at %d", e.idx, got, i)
		}
		if i > 0 && e.before(s.events[(i-1)/2]) {
			h.t.Fatalf("heap order broken at %d", i)
		}
	}
	if len(s.events)+len(s.free) != len(s.nodes) {
		h.t.Fatalf("%d queued + %d free != %d nodes", len(s.events), len(s.free), len(s.nodes))
	}
}

// TestHeapMatchesReference drives the indexed heap with random schedules,
// mid-heap cancels, stale handles, cancels and schedules from inside
// callbacks and interleaved RunUntil calls, and checks the firing order
// against a reference sort by (at, seq) of the events never cancelled.
func TestHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		h := &heapHarness{t: t, s: New(seed), rng: rand.New(rand.NewSource(seed))}
		for op := 0; op < 400; op++ {
			switch r := h.rng.Intn(10); {
			case r < 5:
				h.schedule()
			case r < 8:
				h.cancelRandom()
			default:
				h.s.RunUntil(h.s.Now() + time.Duration(h.rng.Intn(15))*time.Millisecond)
			}
			h.checkHeap()
		}
		h.s.Run()
		h.checkHeap()

		var want []int
		for _, e := range h.events {
			if !e.cancelled {
				want = append(want, e.id)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := h.events[want[i]], h.events[want[j]]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.id < b.id
		})
		if len(h.fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(h.fired), len(want))
		}
		for i := range want {
			if h.fired[i] != want[i] {
				t.Fatalf("seed %d: firing #%d is event %d, want %d", seed, i, h.fired[i], want[i])
			}
		}
		if len(h.s.events) != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, len(h.s.events))
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var at []time.Duration
	s.Schedule(time.Millisecond, func() {
		at = append(at, s.Now())
		s.Schedule(time.Millisecond, func() {
			at = append(at, s.Now())
		})
	})
	s.Run()
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Fatalf("at = %v", at)
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	s := New(1)
	count := 0
	s.Schedule(time.Millisecond, func() { count++ })
	s.Schedule(time.Hour, func() { count++ })
	s.RunUntil(time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock should advance to deadline, got %v", s.Now())
	}
	s.Run()
	if count != 2 || s.Now() != time.Hour {
		t.Fatalf("future event: count = %d at %v, want 2 at 1h", count, s.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(-time.Second, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	sample := func() []float64 {
		s := New(42)
		out := make([]float64, 10)
		for i := range out {
			out[i] = s.Rand().Float64()
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give same stream")
		}
	}
	if New(42).SubRand(1).Float64() == New(43).SubRand(1).Float64() {
		t.Fatal("different seeds should diverge")
	}
}

func TestLinkTxTime(t *testing.T) {
	s := New(1)
	l := NewLink(s, LinkConfig{BandwidthBps: 8_000_000, QueueCapBytes: 1 << 20}, 1)
	// 1000 bytes at 8 Mbps = 1 ms.
	if got := l.TxTime(1000); got != time.Millisecond {
		t.Fatalf("TxTime = %v, want 1ms", got)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := New(1)
	var arrived time.Duration
	l := NewLink(s, LinkConfig{
		BandwidthBps:  8_000_000,
		PropDelay:     10 * time.Millisecond,
		QueueCapBytes: 1 << 20,
	}, 1)
	l.Deliver = func(f Frame) { arrived = s.Now() }
	l.Send(Frame{Size: 1000})
	s.Run()
	want := time.Millisecond + 10*time.Millisecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkSerializationQueueing(t *testing.T) {
	s := New(1)
	var arrivals []time.Duration
	l := NewLink(s, LinkConfig{BandwidthBps: 8_000_000, QueueCapBytes: 1 << 20}, 1)
	l.Deliver = func(f Frame) { arrivals = append(arrivals, s.Now()) }
	// Three back-to-back 1000 B frames serialize at 1 ms intervals.
	for i := 0; i < 3; i++ {
		l.Send(Frame{Size: 1000})
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, want := range []time.Duration{1, 2, 3} {
		if arrivals[i] != want*time.Millisecond {
			t.Fatalf("arrival %d = %v, want %vms", i, arrivals[i], want)
		}
	}
}

// queuedBytes is the link's queue occupancy once departed frames have left
// it.
func queuedBytes(l *Link) int {
	l.drain()
	return l.queuedBytes
}

func TestLinkDropTail(t *testing.T) {
	s := New(1)
	delivered := 0
	l := NewLink(s, LinkConfig{BandwidthBps: 8_000_000, QueueCapBytes: 2500}, 1)
	l.Deliver = func(f Frame) { delivered++ }
	for i := 0; i < 5; i++ {
		l.Send(Frame{Size: 1000}) // only 2 fit in 2500 B
	}
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	if l.Stats.DroppedQueue != 3 {
		t.Fatalf("dropped = %d, want 3", l.Stats.DroppedQueue)
	}
	if got := queuedBytes(l); got != 0 {
		t.Fatalf("queue should drain to 0, got %d", got)
	}
}

func TestLinkQueueDrainsAllowsLaterFrames(t *testing.T) {
	s := New(1)
	delivered := 0
	l := NewLink(s, LinkConfig{BandwidthBps: 8_000_000, QueueCapBytes: 1000}, 1)
	l.Deliver = func(f Frame) { delivered++ }
	l.Send(Frame{Size: 1000})
	// After the first frame serializes (1 ms), the queue has room again.
	s.Schedule(2*time.Millisecond, func() { l.Send(Frame{Size: 1000}) })
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
}

func TestLinkRandomLossRate(t *testing.T) {
	s := New(7)
	delivered := 0
	l := NewLink(s, LinkConfig{BandwidthBps: 1e9, QueueCapBytes: 1 << 30, LossRate: 0.25}, 1)
	l.Deliver = func(f Frame) { delivered++ }
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(Frame{Size: 100})
	}
	s.Run()
	got := 1 - float64(delivered)/n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical loss = %v, want ~0.25", got)
	}
	if l.Stats.DroppedLoss == 0 {
		t.Fatal("stats should record loss")
	}
}

func TestLinkZeroLossDeliversAll(t *testing.T) {
	s := New(7)
	delivered := 0
	l := NewLink(s, LinkConfig{BandwidthBps: 1e9, QueueCapBytes: 1 << 30}, 1)
	l.Deliver = func(f Frame) { delivered++ }
	for i := 0; i < 1000; i++ {
		l.Send(Frame{Size: 100})
	}
	s.Run()
	if delivered != 1000 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestQueueCapForDelay(t *testing.T) {
	// 25 Mbps for 12 ms = 37500 bytes.
	if got := QueueCapForDelay(25_000_000, 12*time.Millisecond); got != 37500 {
		t.Fatalf("cap = %d, want 37500", got)
	}
	if QueueCapForDelay(1, time.Nanosecond) < 1 {
		t.Fatal("cap must be at least 1")
	}
}

func TestNetworkTable2Values(t *testing.T) {
	nets := Networks()
	if len(nets) != 4 {
		t.Fatalf("want 4 networks, got %d", len(nets))
	}
	if DSL.DownlinkBps != 25_000_000 || DSL.QueueDelay != 12*time.Millisecond {
		t.Fatal("DSL row wrong")
	}
	if LTE.MinRTT != 74*time.Millisecond || LTE.LossRate != 0 {
		t.Fatal("LTE row wrong")
	}
	if DA2GC.LossRate != 0.033 || DA2GC.UplinkBps != 468_000 {
		t.Fatal("DA2GC row wrong")
	}
	if MSS.MinRTT != 760*time.Millisecond || MSS.LossRate != 0.06 {
		t.Fatal("MSS row wrong")
	}
}

func TestNetworkByName(t *testing.T) {
	n, err := NetworkByName("MSS")
	if err != nil || n.Name != "MSS" {
		t.Fatalf("NetworkByName: %v %v", n, err)
	}
	if _, err := NetworkByName("5G"); err == nil {
		t.Fatal("unknown network should error")
	}
}

func TestPathRTT(t *testing.T) {
	s := New(1)
	var done time.Duration
	var p *Path
	p = NewPath(s, DSL,
		func(f Frame) { p.Down.Send(Frame{Size: f.Size}) },
		func(f Frame) { done = s.Now() },
	)
	p.Up.Send(Frame{Size: 100})
	s.Run()
	// RTT = 24 ms prop + serialization both ways (tiny at these rates).
	if done < DSL.MinRTT || done > DSL.MinRTT+2*time.Millisecond {
		t.Fatalf("rtt = %v, want ~%v", done, DSL.MinRTT)
	}
}

func TestPathBDP(t *testing.T) {
	// 10.5 Mbps * 74 ms / 8 = 97125 bytes.
	if got := LTE.BDPBytes(); got != 97125 {
		t.Fatalf("BDP = %d, want 97125", got)
	}
}

// Property: for any batch of equal-size frames on a loss-free link, the k-th
// delivery happens at exactly k*txTime + propDelay.
func TestPropertyLinkFIFOTiming(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%20) + 1
		size := int(sizeRaw%1400) + 100
		s := New(3)
		var arrivals []time.Duration
		l := NewLink(s, LinkConfig{
			BandwidthBps:  10_000_000,
			PropDelay:     5 * time.Millisecond,
			QueueCapBytes: 1 << 30,
		}, 1)
		l.Deliver = func(Frame) { arrivals = append(arrivals, s.Now()) }
		for i := 0; i < n; i++ {
			l.Send(Frame{Size: size})
		}
		s.Run()
		if len(arrivals) != n {
			return false
		}
		tx := l.TxTime(size)
		for k, at := range arrivals {
			want := time.Duration(k+1)*tx + 5*time.Millisecond
			if d := at - want; d < -time.Microsecond || d > time.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue occupancy never exceeds the configured cap.
func TestPropertyQueueBound(t *testing.T) {
	s := New(11)
	l := NewLink(s, LinkConfig{BandwidthBps: 1_000_000, QueueCapBytes: 9000}, 1)
	l.Deliver = func(Frame) {}
	for i := 0; i < 200; i++ {
		l.Send(Frame{Size: 1000})
		if got := queuedBytes(l); got > 9000 {
			t.Fatalf("queue %d exceeds cap", got)
		}
	}
	s.Run()
	if l.Stats.MaxQueueBytes > 9000 {
		t.Fatalf("max queue %d exceeds cap", l.Stats.MaxQueueBytes)
	}
}

func TestLinkPanicsOnMisuse(t *testing.T) {
	s := New(1)
	l := NewLink(s, LinkConfig{BandwidthBps: 1e6, QueueCapBytes: 1 << 20}, 1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil deliver", func() { l.Send(Frame{Size: 10}) })
	l.Deliver = func(Frame) {}
	mustPanic("zero size", func() { l.Send(Frame{Size: 0}) })
}
