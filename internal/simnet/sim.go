// Package simnet is a deterministic discrete-event network simulator that
// stands in for the paper's Mahimahi testbed. It models exactly the three
// network properties Mahimahi's shells emulate and the paper controls
// (Table 2): link bandwidth (packet serialization), propagation delay, and a
// droptail queue sized in milliseconds, plus independent random packet loss.
//
// Virtual time is fully decoupled from wall time, and all randomness flows
// from an explicit seed, so every experiment in this repository is
// bit-reproducible.
//
// The event core is allocation-free in steady state: event nodes come from a
// per-simulator free list and are recycled when they fire or when a
// cancelled node is popped, and callbacks are scheduled as a plain function
// plus a pre-bound argument (ScheduleArg) instead of a per-event closure.
// Events execute in (time, sequence) order — FIFO among simultaneous events
// — which is the ordering contract every deterministic result in this
// repository depends on.
package simnet

import (
	"math/rand"
	"time"
)

// timerNode is one pooled event-queue entry. Nodes belong to their
// Simulator: they move between the event heap and the free list and are
// never shared across simulators. gen distinguishes incarnations of a node
// so that a stale Timer handle (kept after the event fired or was cancelled)
// is inert rather than affecting an unrelated recycled event.
type timerNode struct {
	at      time.Duration
	seq     uint64
	fn      func(any)
	arg     any
	gen     uint64
	pending bool
}

// Timer is a cheap value handle to a scheduled event that can be cancelled.
// The zero value is a valid, inert handle (Cancel is a no-op, Active reports
// false); live handles come from the Schedule family.
type Timer struct {
	n   *timerNode
	gen uint64
}

// Cancel prevents the timer from firing. Cancelling an already-fired,
// already-cancelled, or zero timer is a no-op.
func (t Timer) Cancel() {
	if t.n != nil && t.gen == t.n.gen && t.n.pending {
		t.n.pending = false
		t.n.fn = nil
		t.n.arg = nil
	}
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.n != nil && t.gen == t.n.gen && t.n.pending
}

// At returns the virtual time the timer is scheduled to fire, or zero if the
// handle is no longer active.
func (t Timer) At() time.Duration {
	if !t.Active() {
		return 0
	}
	return t.n.at
}

// Simulator owns a virtual clock and an event queue. It is not safe for
// concurrent use; the whole simulation is single-threaded by design, which
// both matches the deterministic-replay requirement and avoids lock overhead
// in the event loop.
type Simulator struct {
	now    time.Duration
	events []*timerNode // binary min-heap on (at, seq)
	free   []*timerNode
	seq    uint64
	curSeq uint64 // seq of the event currently executing
	rng    *rand.Rand

	// Processed counts events executed, for instrumentation and benchmarks.
	Processed uint64
}

// New returns a simulator whose random stream is derived from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Simulator) Now() time.Duration { return s.now }

// Rand exposes the simulator's seeded random stream. Components that need
// independent streams should use SubRand.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SubRand derives an independent deterministic random stream from the
// simulator seed and a caller-chosen label, so that adding a new consumer of
// randomness does not perturb existing draws.
func (s *Simulator) SubRand(label int64) *rand.Rand {
	return rand.New(rand.NewSource(s.rng.Int63() ^ label))
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run at the current instant, after already-queued events for that
// instant). It returns a Timer handle that may be cancelled.
//
// The closure is carried through the event node's argument slot, so the call
// itself does not allocate beyond what the closure costs the caller; hot
// paths that would otherwise build a closure per event should use
// ScheduleArg with a package-level function instead.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	return s.ScheduleArg(delay, callClosure, fn)
}

// callClosure adapts the closure-based Schedule API to the (fn, arg) core.
func callClosure(arg any) { arg.(func())() }

// ScheduleArg runs fn(arg) after delay of virtual time. With a package-level
// (or otherwise pre-existing) fn and a pointer-shaped arg this is
// allocation-free in steady state: the event node comes from the
// simulator's free list.
func (s *Simulator) ScheduleArg(delay time.Duration, fn func(any), arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleArgAt(s.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute virtual time at. Times in the past
// are clamped to the current instant.
func (s *Simulator) ScheduleArgAt(at time.Duration, fn func(any), arg any) Timer {
	if at < s.now {
		at = s.now
	}
	if len(s.free) == 0 {
		// Grow the pool a slab at a time so even a cold simulator pays one
		// allocation per 32 events, not one per event.
		slab := make([]timerNode, 32)
		for i := range slab {
			s.free = append(s.free, &slab[i])
		}
	}
	ln := len(s.free)
	n := s.free[ln-1]
	s.free[ln-1] = nil
	s.free = s.free[:ln-1]
	n.at, n.seq, n.fn, n.arg, n.pending = at, s.seq, fn, arg, true
	s.seq++
	s.heapPush(n)
	return Timer{n: n, gen: n.gen}
}

// release recycles a node popped off the heap. Bumping gen invalidates every
// outstanding handle to this incarnation before the node is reused.
func (s *Simulator) release(n *timerNode) {
	n.gen++
	n.fn = nil
	n.arg = nil
	n.pending = false
	s.free = append(s.free, n)
}

// less orders the heap by (at, seq): FIFO among simultaneous events.
func less(a, b *timerNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) heapPush(n *timerNode) {
	h := append(s.events, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.events = h
}

func (s *Simulator) heapPop() *timerNode {
	h := s.events
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && less(h[l], h[min]) {
			min = l
		}
		if r < last && less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.events = h
	return top
}

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (s *Simulator) step() bool {
	for len(s.events) > 0 {
		n := s.heapPop()
		if !n.pending {
			s.release(n)
			continue
		}
		s.now = n.at
		s.curSeq = n.seq
		fn, arg := n.fn, n.arg
		s.release(n) // before the callback, so it can reuse the node
		s.Processed++
		fn(arg)
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled past the deadline stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		// Peek without popping, discarding cancelled nodes.
		var next *timerNode
		for len(s.events) > 0 {
			cand := s.events[0]
			if !cand.pending {
				s.release(s.heapPop())
				continue
			}
			next = cand
			break
		}
		if next == nil || next.at > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	// Everything scheduled at or before the deadline has run; mark the
	// current event position past every sequence number handed out so far,
	// so lazy bookkeeping keyed on (time, seq) — the link layer's queue
	// drain — settles exactly like the eager events it replaced would have
	// inside this call (e.g. a frame departing precisely at the deadline).
	s.curSeq = s.seq
}

// allocSeq consumes one sequence number without scheduling an event. The
// link layer uses this to stamp each frame's queue-departure with the exact
// position its bookkeeping event would have occupied in the (at, seq) order,
// so replacing that event with lazy accounting cannot perturb any tie-break.
func (s *Simulator) allocSeq() uint64 {
	v := s.seq
	s.seq++
	return v
}
