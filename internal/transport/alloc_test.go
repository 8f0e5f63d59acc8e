package transport

import (
	"testing"
	"time"

	"repro/internal/congestion"
	"repro/internal/simnet"
)

// TestTransportSendPathAllocs pins the steady-state allocation cost of the
// full transport send path — WriteStream, chunking, packetization, link
// traversal, delayed acks, SACK generation, loss detection — on a loss-free
// network. With pooled packets (delivered and dropped ones alike), pooled
// sent-packet records, pooled event nodes and in-place range sets, a 64 KB
// write settles at zero allocations or close to it, where it used to cost
// ~10 per packet.
func TestTransportSendPathAllocs(t *testing.T) {
	sim := simnet.New(1)
	net := NewNetwork(sim, simnet.DSL)
	sem := Semantics{ByteStream: true, MaxSackBlocks: 3, AckEvery: 2, AckDelay: 40 * time.Millisecond}
	c, s := net.NewConnPair(
		Config{CC: congestion.NewCubic(congestion.Config{InitialWindowSegments: 10}), RecvBuf: 1 << 22, Sem: sem},
		Config{CC: congestion.NewCubic(congestion.Config{InitialWindowSegments: 10}), RecvBuf: 1 << 22, Sem: sem},
	)
	c.Start()
	s.Start()
	// Warm every pool and map with a first transfer.
	s.WriteStream(1, 512<<10, false)
	sim.Run()

	const chunk = 64 << 10
	avg := testing.AllocsPerRun(5, func() {
		s.WriteStream(1, chunk, false)
		sim.Run()
	})
	t.Logf("steady-state allocs per %d KiB write: %.1f", chunk>>10, avg)
	if avg > 32 {
		t.Fatalf("transport send path allocates %.1f per %d KiB write, want <= 32", avg, chunk>>10)
	}
}

// TestSentListSteadyStateAllocFree pins the sender's ack cycle on a warm
// conn at zero allocations. Each cycle sends eight packets, acks two from
// the middle of the sent list (a live head, so the list shifts the live
// records behind them down) and then acks the rest (the whole list pops off
// the head); loss detection, the RTO timer and the refill of the window run
// on every ack.
func TestSentListSteadyStateAllocFree(t *testing.T) {
	sim := simnet.New(1)
	var c *Conn
	c = NewConn(sim, Config{CC: congestion.NewCubic(congestion.Config{InitialWindowSegments: 10}), Sem: Semantics{}},
		func(f simnet.Frame) { c.pool.Put(f.Payload.(*Packet)) })
	pool := c.pool
	c.Start()
	// ack draws its packet the way sendAck does, from the pool's ack list.
	ack := func(start, end int64) {
		p := pool.GetAck(1)
		p.Kind = KindAck
		p.ackStore.CumAck = -1
		p.ackStore.RcvWindow = 1 << 20
		p.ackStore.Ranges = append(p.ackStore.Ranges[:0], Range{start, end})
		p.Ack = &p.ackStore
		c.Receive(p)
		pool.Put(p)
	}
	cycle := func() {
		first := c.nextPN
		c.WriteStream(1, 8*int64(c.cfg.MSS), false)
		if c.sent.len() != 8 {
			t.Fatalf("%d packets outstanding, want 8", c.sent.len())
		}
		sim.RunUntil(sim.Now() + 10*time.Millisecond)
		ack(first+1, first+3)
		if c.sent.len() != 6 {
			t.Fatalf("%d packets outstanding after the middle ack, want 6", c.sent.len())
		}
		sim.RunUntil(sim.Now() + 10*time.Millisecond)
		ack(first, first+8)
		if c.sent.len() != 0 {
			t.Fatalf("%d packets outstanding after the full ack, want 0", c.sent.len())
		}
	}
	for range 64 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("sent-list ack cycle allocates %.1f times, want 0", allocs)
	}
}

// TestFreeListTrimKeepsRunPeak checks the retention rule of the pools and
// spare conns: a trim keeps the most entries the run since the last trim had
// drawn at once, and lets go of the ones it never drew.
func TestFreeListTrimKeepsRunPeak(t *testing.T) {
	var l freeList[int]
	vals := make([]int, 10)
	for i := range vals {
		l.put(&vals[i])
	}
	l.trim() // a new run starts with all ten free
	var out []*int
	for range 4 { // peak: four drawn at once
		out = append(out, l.get())
	}
	for _, v := range out[2:] {
		l.put(v)
	}
	again := l.get() // below the peak: the low mark stays
	l.put(again)
	l.put(out[0])
	l.put(out[1])
	for _, v := range out {
		if v == nil {
			t.Fatal("a list holding entries returned nil")
		}
	}
	l.trim()
	if len(l.free) != 4 {
		t.Fatalf("trim kept %d entries, want the run's peak of 4", len(l.free))
	}
	for _, v := range l.free {
		if v == &vals[0] || v == &vals[1] || v == &vals[2] || v == &vals[3] || v == &vals[4] || v == &vals[5] {
			t.Fatalf("trim kept entry %d, which the run never drew", v)
		}
	}
	l.trim() // a run that drew nothing keeps nothing
	if len(l.free) != 0 {
		t.Fatalf("trim after an idle run kept %d entries, want 0", len(l.free))
	}
}
