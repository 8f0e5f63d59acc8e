package transport

import "fmt"

// PacketKind discriminates the simulated wire packets.
type PacketKind int

const (
	// KindHandshake carries one step of the connection-establishment
	// script (SYN/SYN-ACK/TLS flights for TCP, CHLO/SHLO for gQUIC).
	KindHandshake PacketKind = iota
	// KindData carries stream payload (and piggybacks nothing; acks are
	// separate packets in this model).
	KindData
	// KindAck is a pure acknowledgment.
	KindAck
)

func (k PacketKind) String() string {
	switch k {
	case KindHandshake:
		return "handshake"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	}
	return "?"
}

// AckInfo is the acknowledgment block of an ack packet.
type AckInfo struct {
	// CumAck acknowledges all connection-stream bytes below it (TCP mode).
	// Unused (-1) in packet-number mode.
	CumAck int64
	// Ranges are SACK blocks (TCP: connection-byte ranges, at most 3) or
	// QUIC ack ranges (packet numbers, effectively unlimited). QUIC ranges
	// are disjoint and highest first, as RangeSet.AppendAbove emits them;
	// the sender's ack matching walks them from the last and relies on it.
	Ranges []Range
	// RcvWindow advertises the receiver's remaining buffer in bytes.
	RcvWindow int64
}

// Packet is the unit exchanged over simnet between the two halves of a
// connection. Payload bytes are represented by counts only — the testbed
// measures timing, not content.
type Packet struct {
	ConnID int
	Kind   PacketKind

	// PN is the sender-assigned packet number (monotonic, never reused,
	// QUIC-style). TCP loss detection runs on byte ranges instead, but PNs
	// still order the sender's sent list.
	PN int64

	// Handshake fields.
	HandshakeStep int
	HandshakeLast bool // final fragment of the step

	// Data fields.
	StreamID   int
	StreamOff  int64 // offset within the stream
	PayloadLen int
	Fin        bool  // last chunk of the stream
	ConnOff    int64 // position in the connection byte stream; -1 in per-stream (QUIC) mode
	Rexmit     bool  // retransmission (RTT samples from these are ambiguous)

	Ack *AckInfo

	// ackStore is the AckInfo (and its range storage) Ack points at when the
	// packet was built by a pooling sender; its Ranges capacity survives
	// recycling through the pool's ack list, so steady-state acks allocate
	// nothing.
	ackStore AckInfo
}

// packetPool recycles the per-packet objects of all the conns on a Network:
// wire packets and sent records. A packet drawn by the sending Conn comes
// back once the receiving Conn has consumed it (Receive copies everything it
// keeps), once the link discards it — random loss alone drops 3.3–6% of the
// frames on the in-flight networks, before any droptail victim — or, when
// the Network is reset, while it is still in flight. So in steady state the
// send path allocates no packets. Ack packets keep their grown range
// storage, which data and handshake packets never need, on free lists of
// their own: one for short acks and one for long ones (a lossy QUIC
// connection's acks carry up to 256 ranges). Short acks are the most
// numerous, and drawing them from the long list would leave the largest
// storage on every ack packet the pool holds. Sent records come back when
// compactSent drops them or the Network is reset.
type packetPool struct {
	data freeList[Packet]     // handshake and data packets
	acks [2]freeList[Packet]  // ack packets by range storage: short, then long
	sent freeList[SentPacket] // in-flight records
}

// longAck is the range count above which an ack is drawn from, and its
// packet returned to, the long-ack list.
const longAck = 16

func ackClass(ranges int) int {
	if ranges > longAck {
		return 1
	}
	return 0
}

// Get returns a zeroed handshake or data packet.
func (pp *packetPool) Get() *Packet {
	if p := pp.data.get(); p != nil {
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// GetAck returns a zeroed packet for an ack of about the given number of
// ranges, reusing the range capacity of an earlier ack of its class when
// one is free.
func (pp *packetPool) GetAck(ranges int) *Packet {
	p := pp.acks[ackClass(ranges)].get()
	if p == nil {
		return &Packet{}
	}
	store := p.ackStore.Ranges[:0]
	*p = Packet{}
	p.ackStore.Ranges = store
	return p
}

// Put returns a consumed or discarded packet to the pool.
func (pp *packetPool) Put(p *Packet) {
	if p.Kind == KindAck {
		pp.acks[ackClass(cap(p.ackStore.Ranges))].put(p)
	} else {
		pp.data.put(p)
	}
}

// GetSent returns a zeroed in-flight record.
func (pp *packetPool) GetSent() *SentPacket {
	if sp := pp.sent.get(); sp != nil {
		*sp = SentPacket{}
		return sp
	}
	return &SentPacket{}
}

// PutSent returns a record no sent list holds any more.
func (pp *packetPool) PutSent(sp *SentPacket) { pp.sent.put(sp) }

// trim lets go of what the run since the last trim never drew.
func (pp *packetPool) trim() {
	pp.data.trim()
	pp.acks[0].trim()
	pp.acks[1].trim()
	pp.sent.trim()
}

// freeList is a LIFO free list that remembers the fewest entries it held
// since its last trim. The entries below that mark were not drawn in that
// time, so a trim between runs lets them go, and a list keeps no more than
// the last run needed at its peak rather than the most any run ever did.
type freeList[T any] struct {
	free []*T
	low  int // fewest entries held since the last trim
}

// get takes the newest entry off the list, or returns nil.
func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.low = min(l.low, n-1)
	return v
}

func (l *freeList[T]) put(v *T) { l.free = append(l.free, v) }

// trim drops the entries not drawn since the last trim.
func (l *freeList[T]) trim() {
	n := copy(l.free, l.free[l.low:])
	clear(l.free[n:])
	l.free = l.free[:n]
	l.low = n
}

func (p *Packet) String() string {
	switch p.Kind {
	case KindHandshake:
		return fmt.Sprintf("hs{conn=%d step=%d pn=%d}", p.ConnID, p.HandshakeStep, p.PN)
	case KindData:
		return fmt.Sprintf("data{conn=%d pn=%d s=%d off=%d len=%d fin=%v}",
			p.ConnID, p.PN, p.StreamID, p.StreamOff, p.PayloadLen, p.Fin)
	default:
		return fmt.Sprintf("ack{conn=%d cum=%d ranges=%d}", p.ConnID, p.Ack.CumAck, len(p.Ack.Ranges))
	}
}

// chunk is a unit of queued, not-yet-transmitted (or queued-again for
// retransmission) stream data: a whole write in the send queue, at most one
// MSS once carved off for transmission.
type chunk struct {
	streamID  int
	streamOff int64
	len       int
	fin       bool
	connOff   int64 // -1 in per-stream mode
	rexmit    bool
}

// fifo is a slice consumed from head, so draining does not reallocate and
// popping writes nothing. The consumed prefix is reclaimed before the slice
// grows, once it is at least half the slice, so capacity stays bounded by
// the live contents. It backs the send queue, the retransmission queue, the
// sent list and the receiver's segment reorder queue.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// live returns the unconsumed entries, oldest first.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

func (q *fifo[T]) compact() {
	if q.head > 0 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

func (q *fifo[T]) push(v T) {
	q.compact()
	q.buf = append(q.buf, v)
}

// SentPacket records an in-flight packet for loss detection, RTT sampling
// and delivery-rate estimation.
type SentPacket struct {
	PN     int64
	SentAt int64 // virtual ns

	// Chunk is the retransmittable payload descriptor.
	Chunk chunk

	// DeliveredAtSend snapshots the sender's delivered-bytes counter for
	// BBR-style bandwidth sampling.
	DeliveredAtSend int64

	Acked bool
	Lost  bool
}
