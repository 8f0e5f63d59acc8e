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
// per-simulator free list, are recycled when they fire or are cancelled and
// outlive a Reset, the queue is a pointer-free heap of (time, sequence, node
// index) values, and callbacks are scheduled as a plain function plus a
// pre-bound argument (ScheduleArg) instead of a per-event closure. Events
// execute in (time, sequence) order — FIFO among simultaneous events — which
// is the ordering contract every deterministic result in this repository
// depends on.
package simnet

import (
	"math/rand"
	"time"
)

// timerNode is one pooled event. Nodes belong to their Simulator: they move
// between the event heap and the free list and are never shared across
// simulators. gen distinguishes incarnations of a node: it is bumped when the
// event fires or is cancelled, so a Timer handle is active exactly while its
// generation matches, and a stale handle is inert rather than affecting an
// unrelated recycled event.
type timerNode struct {
	fn  func(any)
	arg any
	gen uint64
	sim *Simulator // owner, set once when the node's slab is created
	id  int32      // index in sim.nodes
	pos int32      // index of the node's entry in sim.events while queued
}

// heapEntry is one queued event: its (at, seq) order key and the index of its
// node. It holds no pointers, so sifting entries costs no GC write barriers.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

func (e heapEntry) before(o heapEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer is a cheap value handle to a scheduled event that can be cancelled.
// The zero value is a valid, inert handle (Cancel is a no-op, Active reports
// false); live handles come from the Schedule family.
type Timer struct {
	n   *timerNode
	gen uint64
}

// Cancel removes the event from the queue so it never fires. Cancelling an
// already-fired, already-cancelled, or zero timer is a no-op.
func (t Timer) Cancel() {
	if n := t.n; n != nil && t.gen == n.gen {
		n.sim.heapRemove(int(n.pos))
		n.sim.release(n)
	}
}

// Active reports whether the timer's event is still queued.
func (t Timer) Active() bool {
	return t.n != nil && t.gen == t.n.gen
}

// Simulator owns a virtual clock and an event queue. It is not safe for
// concurrent use; the whole simulation is single-threaded by design, which
// both matches the deterministic-replay requirement and avoids lock overhead
// in the event loop.
type Simulator struct {
	now    time.Duration
	events []heapEntry  // binary min-heap on (at, seq)
	nodes  []*timerNode // every node the simulator owns, by index
	free   []int32      // indices of the nodes not queued
	seq    uint64
	curSeq uint64 // seq of the event currently executing
	rng    *rand.Rand
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
	return rand.New(rand.NewSource(s.subSeed(label)))
}

// subSeed draws the seed of SubRand's stream for label, so a reset link
// can reseed its existing stream in place with the same draw.
func (s *Simulator) subSeed(label int64) int64 { return s.rng.Int63() ^ label }

// Reset returns the simulator to the state New(seed) builds while keeping
// its event nodes and heap capacity for the next run. Every queued event is
// dropped and every node's generation bumped, so no Timer handle from before
// the reset can reach an event scheduled after it; the clock and sequence
// numbers restart at zero, and the random stream is reseeded in place
// (Seed yields the same stream as a fresh NewSource).
func (s *Simulator) Reset(seed int64) {
	s.free = s.free[:0]
	for _, n := range s.nodes {
		n.gen++
		n.fn, n.arg = nil, nil
		s.free = append(s.free, n.id)
	}
	s.events = s.events[:0]
	s.now, s.seq, s.curSeq = 0, 0, 0
	s.rng.Seed(seed)
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
			n := &slab[i]
			n.sim, n.id = s, int32(len(s.nodes))
			s.nodes = append(s.nodes, n)
			s.free = append(s.free, n.id)
		}
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	n := s.nodes[id]
	n.fn, n.arg = fn, arg
	s.heapPush(heapEntry{at: at, seq: s.seq, idx: id})
	s.seq++
	return Timer{n: n, gen: n.gen}
}

// release recycles a node that fired or was cancelled. Bumping gen
// invalidates every outstanding handle to this incarnation before the node
// is reused.
func (s *Simulator) release(n *timerNode) {
	n.gen++
	n.fn = nil
	n.arg = nil
	s.free = append(s.free, n.id)
}

// place stores e at heap position i and records the position on its node.
func (s *Simulator) place(i int, e heapEntry) {
	s.events[i] = e
	s.nodes[e.idx].pos = int32(i)
}

func (s *Simulator) heapPush(e heapEntry) {
	s.events = append(s.events, e)
	s.siftUp(len(s.events)-1, e)
}

// siftUp fills the hole at i with e, moving parents down until e fits.
func (s *Simulator) siftUp(i int, e heapEntry) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		s.place(i, h[p])
		i = p
	}
	s.place(i, e)
}

// siftDown fills the hole at i with e, moving smaller children up until e
// fits.
func (s *Simulator) siftDown(i int, e heapEntry) {
	h := s.events
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		s.place(i, h[c])
		i = c
	}
	s.place(i, e)
}

// heapRemove deletes the entry at heap position i. Keys are unique, so the
// heap's shape never affects the order events are popped in.
func (s *Simulator) heapRemove(i int) {
	last := len(s.events) - 1
	e := s.events[last]
	s.events = s.events[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(s.events[(i-1)/2]) {
		s.siftUp(i, e)
	} else {
		s.siftDown(i, e)
	}
}

// step executes the earliest queued event. It reports false when the queue
// is empty.
func (s *Simulator) step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	n := s.nodes[e.idx]
	s.heapRemove(0)
	s.now = e.at
	s.curSeq = e.seq
	fn, arg := n.fn, n.arg
	s.release(n) // before the callback, so it can reuse the node
	fn(arg)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled past the deadline stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
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
