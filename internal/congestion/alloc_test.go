package congestion

import (
	"testing"
	"time"
)

// TestBBROnAckSteadyStateAllocFree pins the last congestion-control hot path
// at zero allocations. The samples vary: bandwidth falls in a sawtooth that
// outlasts the 10-round window and RTT rises in one that outlasts the 10 s
// window, so both deques hold many entries and their fronts keep expiring.
// Expired entries are reclaimed by moving the live ones to the front of the
// same backing array, so once the deques reach their high-water mark a
// steady stream of acks never touches the heap.
func TestBBROnAckSteadyStateAllocFree(t *testing.T) {
	b := NewBBR(Config{})
	now := time.Duration(0)
	i := 0
	ack := func() {
		now += 50 * time.Millisecond
		bw := 2e6 - float64(i%32)*5e4
		rtt := 40*time.Millisecond + time.Duration(i%256)*100*time.Microsecond
		i++
		b.OnAck(now, 14600, rtt, bw, 29200)
	}
	// Run several periods of both sawtooths so the measurement sees only
	// steady state.
	for range 4096 {
		ack()
	}
	if n := len(b.bwFilter) - b.bwHead; n < 8 {
		t.Fatalf("bandwidth deque holds %d entries, want a deep window", n)
	}
	// Count whole batches: AllocsPerRun truncates to whole allocations per
	// run, which would hide an occasional regrowth.
	const batch = 1000
	if allocs := testing.AllocsPerRun(5, func() {
		for range batch {
			ack()
		}
	}); allocs != 0 {
		t.Errorf("BBR.OnAck allocates %.0f times per %d acks in steady state, want 0", allocs, batch)
	}
}
