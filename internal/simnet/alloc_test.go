package simnet

import (
	"testing"
	"time"
)

// Allocation-regression gates for the pooled event core. These pin the
// steady-state ceilings the PR 3 rewrite established; if pooling silently
// regresses (a closure creeps into a hot path, a node stops being recycled),
// these fail before any benchmark is ever looked at.

func nopEvent(any) {}

// TestScheduleSteadyStateAllocFree pins Simulator.Schedule at zero
// allocations per event in steady state: node from the free list, no
// closure, heap capacity already grown.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.ScheduleArg(time.Microsecond, nopEvent, nil)
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.ScheduleArg(time.Microsecond, nopEvent, nil)
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("ScheduleArg+fire allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestRearmSteadyStateAllocFree pins the retransmission-timer pattern at
// zero allocations per cycle in steady state: every packet cancels the
// pending timeout and schedules a new one while the clock advances, so the
// cancelled node must go straight back to the free list.
func TestRearmSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	var rto Timer
	cycle := func() {
		rto.Cancel()
		rto = s.ScheduleArg(200*time.Millisecond, nopEvent, nil)
		s.RunUntil(s.Now() + time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(1000, cycle)
	if avg != 0 {
		t.Fatalf("cancel+reschedule allocates %.1f/cycle in steady state, want 0", avg)
	}
}

// TestLinkSendSteadyStateAllocs pins Link.Send at <= 1 allocation per frame
// in steady state (it is expected to be 0: pooled frame node, pooled event
// node, no closures).
func TestLinkSendSteadyStateAllocs(t *testing.T) {
	s := New(1)
	l := NewLink(s, LinkConfig{
		BandwidthBps:  1e9,
		PropDelay:     time.Millisecond,
		QueueCapBytes: 1 << 24,
	}, 1)
	l.Deliver = func(Frame) {}
	for i := 0; i < 256; i++ {
		l.Send(Frame{Size: 1500})
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		l.Send(Frame{Size: 1500})
		s.Run()
	})
	if avg > 1 {
		t.Fatalf("Link.Send allocates %.1f/frame in steady state, want <= 1", avg)
	}
}

// TestTimerHandleSafety exercises the generation counters: a handle kept
// past its event's firing must be inert even after the node is recycled into
// a new event.
func TestTimerHandleSafety(t *testing.T) {
	s := New(1)
	fired := 0
	stale := s.ScheduleArg(time.Millisecond, func(any) {}, nil)
	s.Run()
	if stale.Active() {
		t.Fatal("fired timer still active")
	}
	// The freed node is recycled for the next event; the stale handle must
	// not be able to cancel it.
	fresh := s.Schedule(time.Millisecond, func() { fired++ })
	stale.Cancel()
	if !fresh.Active() {
		t.Fatal("stale Cancel hit a recycled node")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("recycled event fired %d times, want 1", fired)
	}
	// And a zero handle is safely inert.
	var zero Timer
	zero.Cancel()
	if zero.Active() {
		t.Fatal("zero handle active")
	}
}

// TestLinkDrainAtRunUntilDeadline pins the lazy queue accounting against
// RunUntil: a frame whose serialization finishes exactly at the deadline has
// left the queue once RunUntil returns (its bookkeeping event would have
// fired inside the call), even though its delivery is still pending.
func TestLinkDrainAtRunUntilDeadline(t *testing.T) {
	s := New(1)
	l := NewLink(s, LinkConfig{
		BandwidthBps:  8_000_000, // 1000 B serialize in exactly 1 ms
		PropDelay:     10 * time.Millisecond,
		QueueCapBytes: 1000,
	}, 1)
	delivered := 0
	l.Deliver = func(Frame) { delivered++ }
	l.Send(Frame{Size: 1000})
	s.RunUntil(time.Millisecond) // delivery at 11 ms stays queued
	if delivered != 0 {
		t.Fatal("frame delivered before PropDelay elapsed")
	}
	if got := queuedBytes(l); got != 0 {
		t.Fatalf("queued bytes at the departure deadline = %d, want 0", got)
	}
	// The queue has room again, exactly as with eager bookkeeping events.
	l.Send(Frame{Size: 1000})
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
}
