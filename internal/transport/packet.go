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
	// recycling so steady-state acks allocate nothing.
	ackStore AckInfo
}

// packetPool recycles Packets between the two halves of a Network. A packet
// is created by the sending Conn, crosses the simulated link, and is
// returned to the pool by the Network once the receiving Conn has consumed
// it (Receive copies everything it keeps), so in steady state the send path
// allocates no packets. Frames dropped by the link simply fall to the
// garbage collector — a drop is rare relative to a delivery and recycling it
// would couple the link layer to the payload type.
type packetPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing ack-range capacity when available.
func (pp *packetPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		ranges := p.ackStore.Ranges[:0]
		*p = Packet{}
		p.ackStore.Ranges = ranges
		return p
	}
	return &Packet{}
}

// Put returns a consumed packet to the pool.
func (pp *packetPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pp.free = append(pp.free, p)
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
// the live contents. It backs the send queue, the retransmission queue and
// the sent list.
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
