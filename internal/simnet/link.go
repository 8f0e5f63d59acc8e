package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// Frame is the unit the link layer moves: an opaque payload with a wire size.
// Transport packets ride inside Payload; the link only cares about bytes.
type Frame struct {
	Size    int // wire size in bytes, including all header overhead
	Payload interface{}
}

// LinkStats counts what happened on a link, for the retransmission analysis
// the paper performs on the DA2GC inversion (§4.3: "we always found more
// retransmissions for TCP+").
type LinkStats struct {
	Sent           uint64 // frames handed to the link
	Delivered      uint64 // frames that reached the far end
	DroppedLoss    uint64 // frames removed by random loss
	DroppedQueue   uint64 // frames tail-dropped at the queue
	BytesDelivered uint64
	// MaxQueueBytes tracks the deepest observed queue occupancy.
	MaxQueueBytes int
}

// frameNode is one accepted frame riding the link, on an intrusive FIFO.
// Nodes come from the link's free list, so steady-state sending allocates
// nothing.
type frameNode struct {
	frame     Frame
	departure time.Duration // when serialization finishes (leaves the queue)
	deqSeq    uint64        // event-order slot of the departure (see drain)
	next      *frameNode
}

// Link models a unidirectional Mahimahi-style link: a droptail byte queue in
// front of a constant-rate serializer, followed by fixed propagation delay,
// with optional independent (Bernoulli) random loss applied to each frame as
// it enters, mirroring Mahimahi's loss shell sitting outside the link shell.
//
// Each accepted frame schedules exactly one event (its delivery at
// departure+PropDelay); queue occupancy is settled lazily from the frames'
// departure times whenever it is read, so the values every droptail decision
// sees are identical to an eager per-departure bookkeeping event.
type Link struct {
	sim *Simulator
	rng *rand.Rand

	// BandwidthBps is the serialization rate in bits per second.
	BandwidthBps int64
	// PropDelay is the one-way propagation delay added after serialization.
	PropDelay time.Duration
	// QueueCapBytes bounds the droptail queue. Frames arriving when the
	// occupancy would exceed the cap are dropped.
	QueueCapBytes int
	// LossRate is the independent per-frame drop probability in [0, 1].
	LossRate float64
	// Deliver receives frames at the far end. Must be set before Send.
	Deliver func(Frame)
	// Drop, when set, receives every frame the link discards instead: each
	// random-loss and droptail victim, and at a reset each frame still in
	// flight. Owners recycle payloads through it as they do on Deliver.
	Drop func(Frame)

	queuedBytes int
	busyUntil   time.Duration

	// In-flight FIFO: head is the next frame to deliver, undeparted the
	// first frame still occupying the droptail queue (everything between
	// head and undeparted has been serialized but not yet delivered).
	head, tail *frameNode
	undeparted *frameNode
	freeNodes  *frameNode

	Stats LinkStats
}

// LinkConfig bundles the construction parameters for a Link.
type LinkConfig struct {
	BandwidthBps  int64
	PropDelay     time.Duration
	QueueCapBytes int
	LossRate      float64
}

// NewLink builds a link on the simulator. rngLabel selects an independent
// loss stream so uplink and downlink losses are uncorrelated.
func NewLink(sim *Simulator, cfg LinkConfig, rngLabel int64) *Link {
	l := &Link{sim: sim, rng: sim.SubRand(rngLabel)}
	l.configure(cfg)
	return l
}

func (l *Link) configure(cfg LinkConfig) {
	l.BandwidthBps = cfg.BandwidthBps
	l.PropDelay = cfg.PropDelay
	l.QueueCapBytes = cfg.QueueCapBytes
	l.LossRate = cfg.LossRate
}

// reset returns the link to the state NewLink(sim, cfg, rngLabel) builds on
// its simulator, which the caller has just Reset: the loss stream is
// reseeded in place with the seed NewLink would draw, the frames still in
// flight go to Drop and their nodes to the free list, and Stats restart at
// zero. Deliver and Drop stay wired.
func (l *Link) reset(cfg LinkConfig, rngLabel int64) {
	for n := l.head; n != nil; {
		next := n.next
		l.discard(n.frame)
		n.frame = Frame{}
		n.next = l.freeNodes
		l.freeNodes = n
		n = next
	}
	l.head, l.tail, l.undeparted = nil, nil, nil
	l.queuedBytes, l.busyUntil = 0, 0
	l.rng.Seed(l.sim.subSeed(rngLabel))
	l.configure(cfg)
	l.Stats = LinkStats{}
}

// discard hands a frame the link will not deliver back to its owner.
func (l *Link) discard(f Frame) {
	if l.Drop != nil {
		l.Drop(f)
	}
}

// TxTime returns the serialization time of size bytes at the link rate.
func (l *Link) TxTime(size int) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(float64(bits) / float64(l.BandwidthBps) * float64(time.Second))
}

// QueueDelay returns the current queueing delay a newly arriving frame would
// experience before starting serialization.
func (l *Link) QueueDelay() time.Duration {
	if l.busyUntil <= l.sim.Now() {
		return 0
	}
	return l.busyUntil - l.sim.Now()
}

// drain settles queue occupancy: frames whose serialization finished by the
// current instant no longer occupy the droptail queue.
func (l *Link) drain() {
	now := l.sim.Now()
	for n := l.undeparted; n != nil; n = n.next {
		// A frame leaves the queue at event position (departure, deqSeq):
		// strictly before any event at a later time, and before a
		// simultaneous event only if that event was scheduled later. This is
		// exactly when the eager bookkeeping event this replaces would have
		// fired, so droptail decisions are unchanged.
		if n.departure > now || (n.departure == now && n.deqSeq >= l.sim.curSeq) {
			break
		}
		l.queuedBytes -= n.frame.Size
		l.undeparted = n.next
	}
}

// Send pushes a frame onto the link. The frame is dropped (handed to Drop)
// with probability LossRate, or if the droptail queue is full; otherwise it
// is serialized after the frames ahead of it and delivered PropDelay later.
func (l *Link) Send(f Frame) {
	if l.Deliver == nil {
		panic("simnet: Link.Deliver not set")
	}
	if f.Size <= 0 {
		panic(fmt.Sprintf("simnet: invalid frame size %d", f.Size))
	}
	l.Stats.Sent++
	if l.LossRate > 0 && l.rng.Float64() < l.LossRate {
		l.Stats.DroppedLoss++
		l.discard(f)
		return
	}
	l.drain()
	if l.QueueCapBytes > 0 && l.queuedBytes+f.Size > l.QueueCapBytes {
		l.Stats.DroppedQueue++
		l.discard(f)
		return
	}
	l.queuedBytes += f.Size
	if l.queuedBytes > l.Stats.MaxQueueBytes {
		l.Stats.MaxQueueBytes = l.queuedBytes
	}

	now := l.sim.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	departure := start + l.TxTime(f.Size)
	l.busyUntil = departure

	n := l.freeNodes
	if n == nil {
		// Grow the free list a slab at a time (cold-start amortization).
		slab := make([]frameNode, 16)
		for i := 1; i < len(slab); i++ {
			slab[i].next = l.freeNodes
			l.freeNodes = &slab[i]
		}
		n = &slab[0]
	} else {
		l.freeNodes = n.next
	}
	n.frame, n.departure, n.deqSeq, n.next = f, departure, l.sim.allocSeq(), nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	if l.undeparted == nil {
		l.undeparted = n
	}
	l.sim.ScheduleArgAt(departure+l.PropDelay, deliverFrameEvent, l)
}

// deliverFrameEvent delivers the link's oldest in-flight frame. Departures
// are FIFO and PropDelay is constant, so delivery events fire in the same
// order frames were accepted and the head is always the firing frame.
func deliverFrameEvent(arg any) {
	l := arg.(*Link)
	l.drain() // the head departed no later than now-PropDelay
	n := l.head
	l.head = n.next
	if l.head == nil {
		l.tail = nil
	}
	f := n.frame
	n.frame = Frame{} // drop the payload reference while pooled
	n.next = l.freeNodes
	l.freeNodes = n
	l.Stats.Delivered++
	l.Stats.BytesDelivered += uint64(f.Size)
	l.Deliver(f)
}

// QueueCapForDelay converts a queue size expressed as a maximum queueing
// delay (the paper's "queue size is set to 200 ms, except DSL with 12 ms")
// into a byte capacity at the given link rate.
func QueueCapForDelay(bandwidthBps int64, d time.Duration) int {
	bytes := float64(bandwidthBps) / 8 * d.Seconds()
	if bytes < 1 {
		return 1
	}
	return int(bytes)
}
