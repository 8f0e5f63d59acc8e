package simnet

import (
	"testing"
	"time"
)

// TestResetTimerHandlesInert checks that no Timer from before a Reset can
// reach the run after it: a handle to an event still queued at the reset,
// and one to an event that fired, are inactive afterwards, and cancelling
// them leaves the new run's events — which reuse the same nodes — alone.
func TestResetTimerHandlesInert(t *testing.T) {
	s := New(1)
	staleFired := 0
	fired := s.ScheduleArg(time.Millisecond, nopEvent, nil)
	s.RunUntil(2 * time.Millisecond)
	var queued []Timer
	for i := 0; i < 40; i++ { // more than a slab, so every node is in use
		queued = append(queued, s.Schedule(time.Second, func() { staleFired++ }))
	}
	s.Reset(2)
	if s.Now() != 0 {
		t.Fatalf("clock after Reset = %v, want 0", s.Now())
	}
	n := 0
	var fresh []Timer
	for i := 0; i < 40; i++ {
		fresh = append(fresh, s.Schedule(time.Second, func() { n++ }))
	}
	for _, tm := range append(queued, fired) {
		if tm.Active() {
			t.Fatal("a timer from before Reset is still active")
		}
		tm.Cancel()
	}
	for _, tm := range fresh {
		if !tm.Active() {
			t.Fatal("cancelling a stale timer cancelled an event of the new run")
		}
	}
	s.Run()
	if staleFired != 0 || n != 40 {
		t.Fatalf("after Reset: %d stale and %d new events fired, want 0 and 40", staleFired, n)
	}
}

// TestResetMatchesNew checks that a reset simulator and path replay exactly
// what new ones would: the same random streams and, for a lossy path that
// was left with frames in flight, the same deliveries at the same times
// and the same link statistics. The frames still in flight at the reset go
// to the links' Drop hooks.
func TestResetMatchesNew(t *testing.T) {
	type arrival struct {
		at   time.Duration
		size int
	}
	run := func(s *Simulator, p *Path) {
		for i := 0; i < 200; i++ {
			size := 200 + 37*i%1300
			s.Schedule(time.Duration(i)*time.Millisecond, func() { p.Up.Send(Frame{Size: size}) })
			s.Schedule(time.Duration(i)*time.Millisecond, func() { p.Down.Send(Frame{Size: size}) })
		}
		s.Run()
	}
	var fresh, reused []arrival
	record := func(s *Simulator, got *[]arrival) func(Frame) {
		return func(f Frame) { *got = append(*got, arrival{s.Now(), f.Size}) }
	}

	sNew := New(9)
	pNew := NewPath(sNew, DA2GC, record(sNew, &fresh), record(sNew, &fresh))
	want := sNew.Rand().Int63()
	run(sNew, pNew)

	s := New(1)
	var old []arrival
	p := NewPath(s, MSS, record(s, &old), record(s, &old))
	dropped := 0
	p.Up.Drop = func(Frame) { dropped++ }
	p.Down.Drop = p.Up.Drop
	for i := 0; i < 50; i++ {
		p.Up.Send(Frame{Size: 1500})
		p.Down.Send(Frame{Size: 1500})
	}
	s.RunUntil(10 * time.Millisecond) // frames still ride both links
	lost := p.Up.Stats.DroppedLoss + p.Up.Stats.DroppedQueue + p.Down.Stats.DroppedLoss + p.Down.Stats.DroppedQueue
	inFlight := 100 - int(lost)
	if inFlight == 0 || len(old) != 0 {
		t.Fatalf("%d frames in flight and %d delivered at the reset, want some and none", inFlight, len(old))
	}
	s.Reset(9)
	p.Up.Deliver, p.Down.Deliver = record(s, &reused), record(s, &reused)
	p.Reset(DA2GC)
	if dropped != int(lost)+inFlight {
		t.Fatalf("Drop saw %d frames, want %d lost and %d in flight at the reset", dropped, lost, inFlight)
	}
	if got := s.Rand().Int63(); got != want {
		t.Fatalf("reset random stream starts %d, new one %d", got, want)
	}
	run(s, p)

	if len(reused) != len(fresh) {
		t.Fatalf("reset path delivered %d frames, new path %d", len(reused), len(fresh))
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("delivery %d: reset path %+v, new path %+v", i, reused[i], fresh[i])
		}
	}
	if p.Up.Stats != pNew.Up.Stats || p.Down.Stats != pNew.Down.Stats || p.Cfg != pNew.Cfg {
		t.Fatalf("reset path stats %+v/%+v, new path %+v/%+v", p.Up.Stats, p.Down.Stats, pNew.Up.Stats, pNew.Down.Stats)
	}
	if pNew.Up.Stats.DroppedLoss == 0 || pNew.Down.Stats.DroppedLoss == 0 {
		t.Fatal("DA2GC loss never dropped a frame; the loss streams went unchecked")
	}
}

// TestLinkDropHookSeesEveryDrop checks that a link hands each frame it
// discards — random loss and droptail alike — to Drop, exactly once.
func TestLinkDropHookSeesEveryDrop(t *testing.T) {
	s := New(3)
	l := NewLink(s, LinkConfig{BandwidthBps: 2_000_000, PropDelay: 5 * time.Millisecond, QueueCapBytes: 6000, LossRate: 0.1}, 1)
	delivered, dropped := 0, 0
	l.Deliver = func(Frame) { delivered++ }
	l.Drop = func(f Frame) {
		if f.Payload != "frame" {
			t.Fatalf("Drop got payload %v", f.Payload)
		}
		dropped++
	}
	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*2*time.Millisecond, func() {
			for k := 0; k < 4; k++ { // bursts overflow the queue
				l.Send(Frame{Size: 1200, Payload: "frame"})
			}
		})
	}
	s.Run()
	st := l.Stats
	if st.DroppedLoss == 0 || st.DroppedQueue == 0 {
		t.Fatalf("want both kinds of drop, got %+v", st)
	}
	if uint64(dropped) != st.DroppedLoss+st.DroppedQueue {
		t.Fatalf("Drop saw %d frames, want DroppedLoss %d + DroppedQueue %d", dropped, st.DroppedLoss, st.DroppedQueue)
	}
	if uint64(delivered+dropped) != st.Sent {
		t.Fatalf("%d delivered + %d dropped != %d sent", delivered, dropped, st.Sent)
	}
}
