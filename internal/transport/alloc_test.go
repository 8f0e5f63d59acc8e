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
// network. With pooled packets, pooled sent-packet records, pooled event
// nodes and in-place range sets, a 64 KB write settles at a handful of
// allocations (replacements for the packets the link's droptail queue
// drops, which never return to the pool), where it used to cost ~10 per
// packet.
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
