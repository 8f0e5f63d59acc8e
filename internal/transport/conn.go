package transport

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/congestion"
	"repro/internal/simnet"
)

// Role distinguishes the two halves of a connection.
type Role int

const (
	RoleClient Role = iota
	RoleServer
)

// HandshakeStep is one flight of the connection-establishment script.
type HandshakeStep struct {
	FromClient bool
	Bytes      int
}

// Semantics captures the protocol-level differences between the TCP and
// QUIC models. Each Stack carries one (core's preset table holds the TCP and
// QUIC values); everything else in the engine is shared.
type Semantics struct {
	// ByteStream selects TCP delivery: one in-order connection byte stream
	// (a hole blocks all streams behind it) with cumulative ACK + up to
	// MaxSackBlocks SACK ranges. When false, QUIC delivery: per-stream
	// reassembly and packet-number ack ranges.
	ByteStream bool
	// MaxSackBlocks caps SACK blocks per ACK in ByteStream mode (TCP: 3).
	MaxSackBlocks int
	// MaxAckRanges caps ack ranges in packet-number mode (QUIC: large).
	MaxAckRanges int
	// AckEvery acks every n-th data packet (delayed ack).
	AckEvery int
	// AckDelay bounds how long an ack may be withheld.
	AckDelay time.Duration
	// PacketOverhead is per-packet header bytes on the wire.
	PacketOverhead int
	// Handshake is the establishment script. An empty script means the
	// connection is established immediately on Start (used in tests).
	Handshake []HandshakeStep
	// LossThresholdSegments: data is declared lost once this many segments
	// (TCP) or packets (QUIC) beyond it are acknowledged.
	LossThresholdSegments int
}

// Config parameterizes one connection half.
type Config struct {
	ConnID int
	Role   Role
	MSS    int
	// CC is the congestion controller (required).
	CC congestion.Controller
	// Pacing enables the fq-style pacer fed by CC.PacingRate.
	Pacing bool
	// RecvBuf is the local receive buffer advertised to the peer.
	RecvBuf int64
	// Sem must be identical on both halves.
	Sem Semantics
}

// ConnStats counts transport-level events for the analysis (the paper cites
// retransmission counts when explaining the DA2GC inversion).
type ConnStats struct {
	PacketsSent     uint64
	PacketsReceived uint64
	AcksSent        uint64
	Retransmissions uint64
	RTOs            uint64
	BytesSent       int64 // payload bytes sent (first transmissions)
	BytesDelivered  int64 // payload bytes delivered in order to the app
	EstablishedAt   time.Duration
}

// segMeta is one received connection-stream segment held for in-order
// delivery (byte-stream mode).
type segMeta struct {
	connOff  int64
	streamID int
	len      int
	fin      bool
}

type recvStream struct {
	ranges      RangeSet
	deliveredTo int64
	finOff      int64 // -1 while unknown
}

// Conn is one half of a simulated reliable connection. Both halves run the
// same engine; only Role and callbacks differ. All methods must be called
// from simulator callbacks (single-threaded).
type Conn struct {
	sim *simnet.Simulator
	cfg Config
	out func(simnet.Frame)

	// pool recycles wire packets and sent records: the Network's shared
	// pool, or a private one for a standalone Conn (whose packets come back
	// only if its out function returns them).
	pool *packetPool
	// ackScratch / lossScratch / sackAll are reused per-ack scratch slices.
	ackScratch  []*SentPacket
	lossScratch []*SentPacket
	sackAll     []Range

	// Callbacks (set before Start).
	OnEstablished func()
	// OnStreamData fires when the in-order delivered prefix of a stream
	// grows; total is the new delivered byte count, fin reports stream end.
	OnStreamData func(streamID int, total int64, fin bool)
	// OnSendSpace fires (asynchronously, at most once per drain) when all
	// queued data has been handed to the network — the backpressure signal
	// the HTTP response scheduler uses to feed the next frame.
	OnSendSpace func()

	established  bool
	hsNextIn     int // next handshake step index expected from the peer
	hsSentLast   bool
	hsRecvBytes  int
	hsTimer      simnet.Timer
	hsRexmitStep int // step the armed handshake timer retransmits
	hsRetries    int
	hsLastSendAt time.Duration // for handshake RTT sampling

	// Send state. queue holds one entry per WriteStream call; nextChunk
	// carves MSS-sized chunks off its head.
	nextPN int64
	queue  fifo[chunk]
	// rexmitQ holds chunks awaiting retransmission, lowest sequence first —
	// the SACK-scoreboard rule that the oldest hole is repaired first.
	rexmitQ     fifo[chunk]
	connSendOff int64
	// sent holds the outstanding data packets in ascending PN order; acked
	// and lost records are dropped by compactSent.
	sent         fifo[*SentPacket]
	inFlight     int
	delivered    int64
	largestAcked int64
	ackedBytes   RangeSet // ByteStream mode: peer-held byte ranges
	peerRwnd     int64
	pacer        *congestion.Pacer
	rtt          RTTEstimator
	rtoTimer     simnet.Timer
	// Recovery epoch: one congestion response per loss event. In byte-stream
	// mode recovery ends when the cumulative ack passes the highest byte
	// sent at detection time; in packet mode when largestAcked passes the
	// highest PN sent. (RFC 6675 / QUIC recovery semantics.)
	inRecovery     bool
	recoverOff     int64
	recoverPN      int64
	highestSentOff int64
	// tlpFired marks that the next timeout already spent its tail-loss
	// probe; the one after is a full RTO. Reset by ack progress.
	tlpFired      bool
	lastSentAt    time.Duration
	everSent      bool
	sendPending   bool
	drainSignaled bool

	// Receive state.
	rcvConn        RangeSet      // ByteStream: received connection bytes
	rcvSegs        fifo[segMeta] // ByteStream: segments above rcvDeliveredTo, by connOff
	rcvDeliveredTo int64
	rcvPN          RangeSet // packet-number mode: received PNs
	streams        map[int]*recvStream
	rcvHeld        int64 // packet-number mode: stream bytes received, not yet delivered
	ackPending     int
	ackTimer       simnet.Timer
	lastArrival    int64 // connOff of the newest data (first SACK block)
	sackRotate     int   // rotates the remaining SACK blocks across acks

	// sendOffs tracks per-stream write offsets.
	sendOffs map[int]int64

	Stats ConnStats
}

// NewConn builds one connection half. out transmits frames toward the peer
// (normally a simnet link Send).
func NewConn(sim *simnet.Simulator, cfg Config, out func(simnet.Frame)) *Conn {
	c := new(Conn)
	c.init(sim, cfg, out, new(packetPool))
	return c
}

// keepEntries bounds the capacity a reused conn keeps in each buffer and
// map. Most conns of a page load stay below it. The few heavy ones grow past
// it, and keeping their buffers on every spare conn would add up, over the
// loads, to far more memory than any one load uses.
const keepEntries = 64

// kept returns s emptied for reuse, or nil if it grew past keepEntries.
func kept[T any](s []T) []T {
	if cap(s) > keepEntries {
		return nil
	}
	return s[:0]
}

// init sets c up as a new connection half. A conn from an earlier run,
// whose sent records Network.Reset took back, keeps only capacity — its
// queues, sent list, range sets, scratch slices, maps and receive streams,
// up to keepEntries each — so it behaves exactly as a newly built one.
func (c *Conn) init(sim *simnet.Simulator, cfg Config, out func(simnet.Frame), pool *packetPool) {
	if cfg.CC == nil {
		panic("transport: Config.CC is required")
	}
	if cfg.MSS <= 0 {
		cfg.MSS = congestion.DefaultMSS
	}
	if cfg.Sem.AckEvery <= 0 {
		cfg.Sem.AckEvery = 2
	}
	if cfg.Sem.LossThresholdSegments <= 0 {
		cfg.Sem.LossThresholdSegments = 3
	}
	if cfg.Sem.PacketOverhead <= 0 {
		cfg.Sem.PacketOverhead = 40
	}
	if cfg.RecvBuf <= 0 {
		cfg.RecvBuf = 1 << 20
	}
	// Streams and send offsets are never deleted during a run, so a map's
	// length is its high-water mark. A kept stream is reset in place and
	// reads exactly as one stream() creates.
	if len(c.streams) > keepEntries || c.streams == nil {
		c.streams = make(map[int]*recvStream)
	}
	for _, st := range c.streams {
		*st = recvStream{ranges: RangeSet{rs: kept(st.ranges.rs)}, finOff: -1}
	}
	if len(c.sendOffs) > keepEntries {
		c.sendOffs = nil
	}
	clear(c.sendOffs)
	*c = Conn{
		sim:          sim,
		cfg:          cfg,
		out:          out,
		pool:         pool,
		ackScratch:   kept(c.ackScratch),
		lossScratch:  kept(c.lossScratch),
		sackAll:      kept(c.sackAll),
		queue:        fifo[chunk]{buf: kept(c.queue.buf)},
		rexmitQ:      fifo[chunk]{buf: kept(c.rexmitQ.buf)},
		sent:         fifo[*SentPacket]{buf: kept(c.sent.buf)},
		ackedBytes:   RangeSet{rs: kept(c.ackedBytes.rs)},
		rcvConn:      RangeSet{rs: kept(c.rcvConn.rs)},
		rcvPN:        RangeSet{rs: kept(c.rcvPN.rs)},
		rcvSegs:      fifo[segMeta]{buf: kept(c.rcvSegs.buf)},
		streams:      c.streams,
		sendOffs:     c.sendOffs,
		peerRwnd:     1 << 20, // replaced by SetPeerRecvBuf / ack advertisements
		largestAcked: -1,
	}
	if cfg.Pacing {
		c.pacer = congestion.NewPacer(cfg.MSS)
	}
}

// Package-level event callbacks: scheduled with ScheduleArg so arming a
// timer allocates neither a node nor a closure.
func onRTOEvent(a any)   { a.(*Conn).onRTO() }
func sendAckEvent(a any) { a.(*Conn).sendAck() }

func paceResumeEvent(a any) {
	c := a.(*Conn)
	c.sendPending = false
	c.trySend()
}

func drainSignalEvent(a any) {
	c := a.(*Conn)
	if c.queue.len() == 0 && c.rexmitQ.len() == 0 {
		c.OnSendSpace()
	}
}

func hsRexmitEvent(a any) {
	c := a.(*Conn)
	if c.established && c.hsNextIn > c.lastInStep() {
		return
	}
	c.hsRetries++
	c.sendHandshakeStep(c.hsRexmitStep)
}

// SetPeerRecvBuf seeds the flow-control limit before the first ack arrives.
func (c *Conn) SetPeerRecvBuf(n int64) {
	if n > 0 {
		c.peerRwnd = n
	}
}

// SRTT exposes the smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.rtt.SRTT() }

// lastOutStep returns the index of the last script step this side sends, or
// -1 if it sends none.
func (c *Conn) lastOutStep() int {
	last := -1
	for i, st := range c.cfg.Sem.Handshake {
		if st.FromClient == (c.cfg.Role == RoleClient) {
			last = i
		}
	}
	return last
}

// lastInStep returns the index of the last script step directed at this
// side, or -1.
func (c *Conn) lastInStep() int {
	last := -1
	for i, st := range c.cfg.Sem.Handshake {
		if st.FromClient != (c.cfg.Role == RoleClient) {
			last = i
		}
	}
	return last
}

// Start begins the connection. The client transmits the first handshake
// flight; the server arms nothing and waits. With an empty script both sides
// establish immediately.
func (c *Conn) Start() {
	if len(c.cfg.Sem.Handshake) == 0 {
		c.establish()
		return
	}
	if c.cfg.Role == RoleClient && c.cfg.Sem.Handshake[0].FromClient {
		c.sendHandshakeStep(0)
		c.hsNextIn = 1 // we never receive our own flight
	}
	c.maybeEstablish()
}

func (c *Conn) maybeEstablish() {
	if c.established {
		return
	}
	outDone := c.lastOutStep() == -1 || c.hsSentLast
	inDone := c.lastInStep() == -1 || c.hsNextIn > c.lastInStep()
	if outDone && inDone {
		c.establish()
	}
}

func (c *Conn) establish() {
	if c.established {
		return
	}
	c.established = true
	c.Stats.EstablishedAt = c.sim.Now()
	c.hsTimer.Cancel()
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.trySend()
}

// sendHandshakeStep transmits (or retransmits) one script flight, split at
// MSS, and arms a retransmission timer.
func (c *Conn) sendHandshakeStep(i int) {
	step := c.cfg.Sem.Handshake[i]
	remaining := step.Bytes
	for remaining > 0 {
		n := remaining
		if n > c.cfg.MSS {
			n = c.cfg.MSS
		}
		remaining -= n
		pkt := c.pool.Get()
		pkt.ConnID = c.cfg.ConnID
		pkt.Kind = KindHandshake
		pkt.PN = -1
		pkt.HandshakeStep = i
		pkt.PayloadLen = n
		pkt.HandshakeLast = remaining == 0
		c.Stats.PacketsSent++
		c.out(simnet.Frame{Size: n + c.cfg.Sem.PacketOverhead, Payload: pkt})
	}
	if i == c.lastOutStep() {
		c.hsSentLast = true
	}
	c.hsLastSendAt = c.sim.Now()
	c.hsTimer.Cancel()
	// SYN-style retransmission: 1 s initial, doubling. At most one handshake
	// timer is armed, so the step it retransmits lives on the conn.
	delay := time.Second << uint(c.hsRetries)
	if delay > 32*time.Second {
		delay = 32 * time.Second
	}
	c.hsRexmitStep = i
	c.hsTimer = c.sim.ScheduleArg(delay, hsRexmitEvent, c)
}

func (c *Conn) receiveHandshake(p *Packet) {
	if p.HandshakeStep < c.hsNextIn {
		// Duplicate of a step we already consumed: our reply was probably
		// lost. Resend the step that follows it, if it is ours.
		next := p.HandshakeStep + 1
		if next < len(c.cfg.Sem.Handshake) &&
			c.cfg.Sem.Handshake[next].FromClient == (c.cfg.Role == RoleClient) {
			c.sendHandshakeStep(next)
		}
		return
	}
	if p.HandshakeStep > c.hsNextIn {
		// A later step implies earlier ones succeeded (cannot normally
		// happen with a ping-pong script, but be tolerant).
		c.hsNextIn = p.HandshakeStep
		c.hsRecvBytes = 0
	}
	c.hsRecvBytes += p.PayloadLen
	step := c.cfg.Sem.Handshake[c.hsNextIn]
	if !p.HandshakeLast && c.hsRecvBytes < step.Bytes {
		return
	}
	// Step complete. A completed reply to a flight we sent yields an RTT
	// sample, like TCP's SYN/SYN-ACK and TLS measurements — this is what
	// lets the pacer shape the very first data flight.
	if c.hsLastSendAt > 0 && c.hsRetries == 0 {
		sample := c.sim.Now() - c.hsLastSendAt
		c.rtt.AddSample(sample)
		// The controller needs the sample too (pacing rate = f(cwnd, srtt)).
		c.cfg.CC.OnAck(c.sim.Now(), 0, sample, 0, c.inFlight)
		c.hsLastSendAt = 0
	}
	c.hsNextIn++
	c.hsRecvBytes = 0
	c.hsRetries = 0
	c.hsTimer.Cancel()
	if c.hsNextIn < len(c.cfg.Sem.Handshake) {
		next := c.cfg.Sem.Handshake[c.hsNextIn]
		if next.FromClient == (c.cfg.Role == RoleClient) {
			c.sendHandshakeStep(c.hsNextIn)
			c.hsNextIn++ // we do not receive our own step
		}
	}
	c.maybeEstablish()
}

// WriteStream queues n payload bytes on the given stream; fin marks the end
// of the stream. Data is transmitted once the connection is established,
// subject to congestion and flow control.
func (c *Conn) WriteStream(streamID int, n int64, fin bool) {
	if n <= 0 {
		panic(fmt.Sprintf("transport: non-positive write %d", n))
	}
	offBase := c.streamSendOff(streamID)
	ch := chunk{streamID: streamID, streamOff: offBase, len: int(n), fin: fin, connOff: -1}
	if c.cfg.Sem.ByteStream {
		ch.connOff = c.connSendOff
		c.connSendOff += n
	}
	c.queue.push(ch)
	c.drainSignaled = false // new data: the next drain may signal again
	c.setStreamSendOff(streamID, offBase+n)
	c.trySend()
}

// streamSendOff bookkeeping lives in a small map.
func (c *Conn) streamSendOff(id int) int64 {
	if c.sendOffs == nil {
		return 0
	}
	return c.sendOffs[id]
}

func (c *Conn) setStreamSendOff(id int, v int64) {
	if c.sendOffs == nil {
		c.sendOffs = make(map[int]int64)
	}
	c.sendOffs[id] = v
}

// nextChunk peeks the next chunk to transmit: retransmissions first (lowest
// sequence), then at most MSS bytes off the head of the oldest write.
// Retransmission chunks whose bytes the peer has meanwhile SACKed are
// discarded.
func (c *Conn) nextChunk() (chunk, bool) {
	for c.rexmitQ.len() > 0 {
		ch := *c.rexmitQ.front()
		if c.cfg.Sem.ByteStream && c.ackedBytes.Contains(ch.connOff, ch.connOff+int64(ch.len)) {
			c.rexmitQ.pop()
			continue
		}
		return ch, true
	}
	if c.queue.len() == 0 {
		return chunk{}, false
	}
	ch := *c.queue.front()
	if ch.len > c.cfg.MSS {
		ch.len = c.cfg.MSS
		ch.fin = false
	}
	return ch, true
}

// popChunk consumes the n bytes nextChunk returned: the whole retransmission
// at the head, or the first n bytes of the oldest write.
func (c *Conn) popChunk(n int) {
	if c.rexmitQ.len() > 0 {
		c.rexmitQ.pop()
		return
	}
	head := c.queue.front()
	if head.len > n {
		head.len -= n
		head.streamOff += int64(n)
		if c.cfg.Sem.ByteStream {
			head.connOff += int64(n)
		}
		return
	}
	c.queue.pop()
}

// trySend drains the queues while congestion, flow-control and pacing allow.
func (c *Conn) trySend() {
	if !c.established {
		return
	}
	// Idle restart: Linux collapses cwnd to IW when the connection was
	// quiet for an RTO (tcp_slow_start_after_idle); the controller decides
	// whether to honor it.
	if c.everSent && c.inFlight == 0 && (c.queue.len() > 0 || c.rexmitQ.len() > 0) &&
		c.sim.Now()-c.lastSentAt > c.rtt.RTO() {
		c.cfg.CC.OnIdleRestart(c.sim.Now())
	}
	for {
		ch, ok := c.nextChunk()
		if !ok {
			if c.OnSendSpace != nil && !c.drainSignaled {
				c.drainSignaled = true
				c.sim.ScheduleArg(0, drainSignalEvent, c)
			}
			return
		}
		limit := int64(c.cfg.CC.CWND())
		if c.peerRwnd < limit {
			limit = c.peerRwnd
		}
		if int64(c.inFlight+ch.len) > limit && c.inFlight > 0 {
			return // window full; acks will restart us
		}
		wire := ch.len + c.cfg.Sem.PacketOverhead
		if c.pacer != nil {
			rate := c.cfg.CC.PacingRate()
			if d := c.pacer.NextSendDelay(c.sim.Now(), wire, rate); d > 0 {
				if !c.sendPending {
					c.sendPending = true
					c.sim.ScheduleArg(d, paceResumeEvent, c)
				}
				return
			}
		}
		c.popChunk(ch.len)
		c.sendChunk(ch)
	}
}

func (c *Conn) sendChunk(ch chunk) {
	pn := c.nextPN
	c.nextPN++
	pkt := c.pool.Get()
	pkt.ConnID = c.cfg.ConnID
	pkt.Kind = KindData
	pkt.PN = pn
	pkt.StreamID = ch.streamID
	pkt.StreamOff = ch.streamOff
	pkt.PayloadLen = ch.len
	pkt.Fin = ch.fin
	pkt.ConnOff = ch.connOff
	pkt.Rexmit = ch.rexmit
	wire := ch.len + c.cfg.Sem.PacketOverhead
	sp := c.pool.GetSent()
	sp.PN = pn
	sp.SentAt = int64(c.sim.Now())
	sp.Chunk = ch
	sp.DeliveredAtSend = c.delivered
	c.sent.push(sp)
	c.inFlight += ch.len
	if end := ch.connOff + int64(ch.len); end > c.highestSentOff {
		c.highestSentOff = end
	}
	if !ch.rexmit {
		c.Stats.BytesSent += int64(ch.len)
	} else {
		c.Stats.Retransmissions++
	}
	c.Stats.PacketsSent++
	c.cfg.CC.OnPacketSent(c.sim.Now(), c.inFlight, ch.len)
	if c.pacer != nil {
		c.pacer.OnSent(c.sim.Now(), wire, c.cfg.CC.PacingRate())
	}
	c.lastSentAt = c.sim.Now()
	c.everSent = true
	c.armRTO()
	c.out(simnet.Frame{Size: wire, Payload: pkt})
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel()
	deadline := c.rtt.RTO()
	// Before the probe is spent, fire earlier (2*srtt + delayed-ack slack),
	// the RACK/TLP tail-repair schedule.
	if !c.tlpFired && c.rtt.HasSample() {
		if tlp := 2*c.rtt.SRTT() + 50*time.Millisecond; tlp < deadline {
			deadline = tlp
		}
	}
	c.rtoTimer = c.sim.ScheduleArg(deadline, onRTOEvent, c)
}

func (c *Conn) onRTO() {
	if c.inFlight == 0 {
		return
	}
	if !c.tlpFired && c.rtt.HasSample() {
		// Tail loss probe: re-send the newest outstanding chunk without
		// collapsing the window. Its (s)ack restarts normal loss detection
		// for the rest of the tail.
		c.tlpFired = true
		live := c.sent.live()
		for i := len(live) - 1; i >= 0; i-- {
			sp := live[i]
			if sp.Acked || sp.Lost {
				continue
			}
			sp.Lost = true
			c.inFlight -= sp.Chunk.len
			if c.inFlight < 0 {
				c.inFlight = 0
			}
			c.enqueueRexmit(sp.Chunk)
			c.compactSent(i, 1)
			break
		}
		c.armRTO()
		c.trySend()
		return
	}
	c.Stats.RTOs++
	c.rtt.Backoff++
	c.cfg.CC.OnRTO(c.sim.Now())
	// Re-queue every outstanding chunk, oldest first, ahead of new data.
	from, n := c.sent.len(), 0
	for i, sp := range c.sent.live() {
		if sp.Acked || sp.Lost {
			continue
		}
		sp.Lost = true
		c.enqueueRexmit(sp.Chunk)
		from, n = min(from, i), n+1
	}
	c.inFlight = 0
	c.compactSent(from, n)
	c.armRTO()
	c.trySend()
}

// enqueueRexmit inserts a chunk into the retransmission queue in sequence
// order, dropping duplicates and (in byte-stream mode) data the peer has
// already SACKed.
func (c *Conn) enqueueRexmit(ch chunk) {
	ch.rexmit = true
	if c.cfg.Sem.ByteStream && c.ackedBytes.Contains(ch.connOff, ch.connOff+int64(ch.len)) {
		return
	}
	key := func(x chunk) int64 {
		if c.cfg.Sem.ByteStream {
			return x.connOff
		}
		return int64(x.streamID)<<40 | x.streamOff
	}
	k := key(ch)
	q := &c.rexmitQ
	q.compact()
	pos := len(q.buf)
	for i := q.head; i < len(q.buf); i++ {
		kq := key(q.buf[i])
		if kq == k {
			return // already queued
		}
		if kq > k {
			pos = i
			break
		}
	}
	q.buf = append(q.buf, chunk{})
	copy(q.buf[pos+1:], q.buf[pos:])
	q.buf[pos] = ch
}

// compactSent drops acked/lost records from the sent list, returning them to
// the pool. n is the number of records marked acked or lost since the last
// compaction and from the live offset of the lowest of them;
// every record below from is live, so the list is read from there on only,
// and not at all when n is 0. A dead prefix is popped off the head without
// moving a record, and when it held all n marked records nothing more is
// read; otherwise live records are shifted down from the first dead record
// behind a live one.
func (c *Conn) compactSent(from, n int) {
	if n == 0 {
		return
	}
	q := &c.sent
	if from == 0 {
		for n > 0 {
			sp := *q.front()
			if !sp.Acked && !sp.Lost {
				break
			}
			c.pool.PutSent(sp)
			q.pop()
			n--
		}
		if n == 0 {
			return
		}
	}
	live := q.live()
	i := from
	for !live[i].Acked && !live[i].Lost {
		i++
	}
	w := i
	for _, sp := range live[i:] {
		if sp.Acked || sp.Lost {
			c.pool.PutSent(sp)
			continue
		}
		live[w] = sp
		w++
	}
	q.buf = q.buf[:q.head+w]
}

// Receive dispatches a packet arriving from the peer. Wire it to the simnet
// delivery callback.
func (c *Conn) Receive(p *Packet) {
	c.Stats.PacketsReceived++
	switch p.Kind {
	case KindHandshake:
		c.receiveHandshake(p)
	case KindData:
		// Data implies the peer finished its handshake; if ours is still
		// pending (a final flight was lost), force-complete it.
		if !c.established {
			c.hsNextIn = len(c.cfg.Sem.Handshake)
			c.hsSentLast = true
			c.maybeEstablish()
		}
		c.receiveData(p)
	case KindAck:
		c.receiveAck(p)
	}
}

func (c *Conn) receiveData(p *Packet) {
	outOfOrder := false
	if c.cfg.Sem.ByteStream {
		if p.ConnOff > c.rcvConn.CumulativeFrom(0) {
			outOfOrder = true
		}
		c.rcvConn.Add(p.ConnOff, p.ConnOff+int64(p.PayloadLen))
		c.lastArrival = p.ConnOff
		if p.ConnOff >= c.rcvDeliveredTo {
			c.holdSeg(segMeta{connOff: p.ConnOff, streamID: p.StreamID, len: p.PayloadLen, fin: p.Fin})
		}
		for c.rcvSegs.len() > 0 && c.rcvSegs.front().connOff == c.rcvDeliveredTo {
			meta := *c.rcvSegs.front()
			c.rcvSegs.pop()
			c.rcvDeliveredTo += int64(meta.len)
			c.deliverToStream(meta.streamID, int64(meta.len), meta.fin)
		}
	} else {
		if p.PN > c.rcvPN.CumulativeFrom(0) {
			outOfOrder = true
		}
		c.rcvPN.Add(p.PN, p.PN+1)
		st := c.stream(p.StreamID)
		covered := st.ranges.Covered()
		st.ranges.Add(p.StreamOff, p.StreamOff+int64(p.PayloadLen))
		c.rcvHeld += st.ranges.Covered() - covered
		if p.Fin {
			st.finOff = p.StreamOff + int64(p.PayloadLen)
		}
		newTo := st.ranges.CumulativeFrom(st.deliveredTo)
		if newTo > st.deliveredTo {
			adv := newTo - st.deliveredTo
			st.deliveredTo = newTo
			c.rcvHeld -= adv
			c.Stats.BytesDelivered += adv
			if c.OnStreamData != nil {
				c.OnStreamData(p.StreamID, newTo, st.finOff >= 0 && newTo >= st.finOff)
			}
		}
	}
	c.ackPending++
	if c.ackPending >= c.cfg.Sem.AckEvery || outOfOrder {
		c.sendAck()
	} else if !c.ackTimer.Active() {
		c.ackTimer = c.sim.ScheduleArg(c.cfg.Sem.AckDelay, sendAckEvent, c)
	}
}

// holdSeg files a received segment in the reorder queue, in connOff order.
// Segments never overlap partly (a retransmission resends its chunk whole),
// so a duplicate replaces the copy held.
func (c *Conn) holdSeg(m segMeta) {
	q := &c.rcvSegs
	q.compact()
	live := q.live()
	i, dup := slices.BinarySearchFunc(live, m.connOff, func(s segMeta, off int64) int {
		return cmp.Compare(s.connOff, off)
	})
	if dup {
		live[i] = m
		return
	}
	q.buf = slices.Insert(q.buf, q.head+i, m)
}

func (c *Conn) stream(id int) *recvStream {
	st := c.streams[id]
	if st == nil {
		st = &recvStream{finOff: -1}
		c.streams[id] = st
	}
	return st
}

func (c *Conn) deliverToStream(streamID int, n int64, fin bool) {
	st := c.stream(streamID)
	st.deliveredTo += n
	if fin {
		st.finOff = st.deliveredTo
	}
	c.Stats.BytesDelivered += n
	if c.OnStreamData != nil {
		c.OnStreamData(streamID, st.deliveredTo, fin)
	}
}

// rcvWindow computes the advertised flow-control window: buffer minus bytes
// held in reassembly (received but not yet deliverable in order).
func (c *Conn) rcvWindow() int64 {
	held := c.rcvHeld
	if c.cfg.Sem.ByteStream {
		held = c.rcvConn.Covered() - c.rcvDeliveredTo
	}
	w := c.cfg.RecvBuf - held
	if w < int64(c.cfg.MSS) {
		w = int64(c.cfg.MSS)
	}
	return w
}

func (c *Conn) sendAck() {
	c.ackTimer.Cancel()
	c.ackPending = 0
	// The ack rides in the packet's own storage, whose range capacity the
	// pool's ack lists recycle with it.
	max, held := c.cfg.Sem.MaxAckRanges, c.rcvPN.rs
	if max <= 0 {
		max = 256
	}
	if c.cfg.Sem.ByteStream {
		max, held = c.cfg.Sem.MaxSackBlocks, c.rcvConn.rs
	}
	pkt := c.pool.GetAck(min(max, len(held)))
	ai := &pkt.ackStore
	ai.CumAck = -1
	ai.RcvWindow = c.rcvWindow()
	ai.Ranges = ai.Ranges[:0]
	if c.cfg.Sem.ByteStream {
		ai.CumAck = c.rcvConn.CumulativeFrom(0)
		ai.Ranges = c.appendSackBlocks(ai.Ranges, ai.CumAck)
	} else {
		ai.Ranges = c.rcvPN.AppendAbove(ai.Ranges, 0, max)
	}
	pkt.ConnID = c.cfg.ConnID
	pkt.Kind = KindAck
	pkt.PN = -1
	pkt.Ack = ai
	size := c.cfg.Sem.PacketOverhead + 12 + 8*len(ai.Ranges)
	c.Stats.AcksSent++
	c.Stats.PacketsSent++
	c.out(simnet.Frame{Size: size, Payload: pkt})
}

// appendSackBlocks emulates RFC 2018 SACK generation into dst: the first
// block is the range containing the most recently arrived segment, and the
// remaining (at most MaxSackBlocks-1) slots rotate through the other
// out-of-order ranges on successive acks, so the sender accumulates the full
// picture over a few acks despite the 3-block option-space limit.
func (c *Conn) appendSackBlocks(dst []Range, cum int64) []Range {
	max := c.cfg.Sem.MaxSackBlocks
	if max <= 0 {
		return dst
	}
	c.sackAll = c.rcvConn.AppendAbove(c.sackAll[:0], cum, 0) // highest-first
	all := c.sackAll
	if len(all) == 0 {
		return dst
	}
	// First block: the range holding the newest arrival, if out-of-order.
	for _, r := range all {
		if r.Start <= c.lastArrival && c.lastArrival < r.End {
			dst = append(dst, r)
			break
		}
	}
	for i := 0; len(dst) < max && i < len(all); i++ {
		r := all[(i+c.sackRotate)%len(all)]
		dup := false
		for _, b := range dst {
			if b == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	c.sackRotate++
	return dst
}

func (c *Conn) receiveAck(p *Packet) {
	ai := p.Ack
	if ai == nil {
		return
	}
	if ai.RcvWindow > 0 {
		c.peerRwnd = ai.RcvWindow
	}
	now := c.sim.Now()

	if c.cfg.Sem.ByteStream {
		if ai.CumAck > 0 {
			c.ackedBytes.Add(0, ai.CumAck)
		}
		for _, r := range ai.Ranges {
			c.ackedBytes.Add(r.Start, r.End)
		}
	}

	newlyAcked, ackedFrom := c.markAcked(ai.Ranges)
	for _, sp := range newlyAcked {
		c.inFlight -= sp.Chunk.len
		if c.inFlight < 0 {
			c.inFlight = 0
		}
		c.delivered += int64(sp.Chunk.len)
		if sp.PN > c.largestAcked {
			c.largestAcked = sp.PN
			if !sp.Chunk.rexmit {
				c.rtt.AddSample(now - time.Duration(sp.SentAt))
			}
		}
		var bw float64
		if dt := now - time.Duration(sp.SentAt); dt > 0 {
			bw = float64(c.delivered-sp.DeliveredAtSend) / dt.Seconds()
		}
		// Loss-based controllers freeze during recovery (no growth from
		// acks of pre-loss data); model-based ones keep sampling.
		if !c.inRecovery || !c.cfg.CC.LossBased() {
			c.cfg.CC.OnAck(now, sp.Chunk.len, c.rtt.Latest(), bw, c.inFlight)
		}
	}

	c.updateRecovery(ai.CumAck)
	lostFrom, lost := c.detectLosses()
	c.compactSent(min(ackedFrom, lostFrom), len(newlyAcked)+lost)
	c.ackScratch = newlyAcked[:0] // keep the grown capacity for the next ack

	if len(newlyAcked) > 0 {
		c.tlpFired = false
		if c.inFlight > 0 {
			c.armRTO()
		} else {
			c.rtoTimer.Cancel()
		}
	}
	c.trySend()
}

// markAcked marks the outstanding records the ack newly covers and returns
// them in ascending PN order, in the conn's reused scratch slice, with the
// live offset of the first (the list length when there is none). In
// byte-stream mode a record is acked once the SACK scoreboard holds all of
// its bytes; a record ending above the scoreboard's highest byte cannot be,
// so it is passed over without a search (and without ending the walk: a
// retransmission keeps its low connOff at a high PN). In packet-number mode
// a record is acked once one of ranges holds its PN, matched in a single
// merge walk of the ascending sent list against ranges, which AppendAbove
// emits highest first.
func (c *Conn) markAcked(ranges []Range) ([]*SentPacket, int) {
	newlyAcked := c.ackScratch[:0]
	from := c.sent.len()
	j := len(ranges) - 1
	var highest int64 = -1 // byte-stream mode: end of the highest SACKed byte
	if r, ok := c.ackedBytes.Last(); ok {
		highest = r.End
	}
	for i, sp := range c.sent.live() {
		if sp.Acked || sp.Lost {
			continue
		}
		if c.cfg.Sem.ByteStream {
			start := sp.Chunk.connOff
			end := start + int64(sp.Chunk.len)
			if end > highest || !c.ackedBytes.Contains(start, end) {
				continue
			}
		} else {
			for j >= 0 && ranges[j].End <= sp.PN {
				j--
			}
			if j < 0 {
				break
			}
			if sp.PN < ranges[j].Start {
				continue
			}
		}
		sp.Acked = true
		if len(newlyAcked) == 0 {
			from = i
		}
		newlyAcked = append(newlyAcked, sp)
	}
	return newlyAcked, from
}

// detectLosses applies the segment/packet-threshold rule plus a RACK-style
// time threshold, re-queues lost data ahead of new data, and signals the
// controller at most once per recovery epoch. It walks the sent list only as
// far as a rule can reach, and returns the live offset of the first record it
// marked lost (the list length when there is none) and how many it marked.
func (c *Conn) detectLosses() (from, n int) {
	now := c.sim.Now()
	thresholdBytes := int64(c.cfg.Sem.LossThresholdSegments * c.cfg.MSS)
	var highestSacked int64 = -1
	if c.cfg.Sem.ByteStream {
		if r, ok := c.ackedBytes.Last(); ok {
			highestSacked = r.End
		}
	}
	timeThresh := c.rtt.SRTT() * 5 / 4
	if timeThresh == 0 {
		timeThresh = 250 * time.Millisecond
	}

	lost := c.lossScratch[:0]
	from = c.sent.len()
	for i, sp := range c.sent.live() {
		if sp.Acked || sp.Lost {
			continue
		}
		// The walk ends at the first record no rule can reach, since no
		// later one is reachable either. Both rules need a newer packet
		// acked, and later records have higher PNs. In byte-stream mode the
		// threshold rule also reaches a record far enough below the highest
		// SACKed byte; a record's bytes lie below those of every first
		// transmission sent after it (first transmissions leave in connOff
		// order, retransmissions resend earlier bytes), so past a record
		// that is not, no later one is.
		if sp.PN >= c.largestAcked && (!c.cfg.Sem.ByteStream ||
			sp.Chunk.connOff+int64(sp.Chunk.len)+thresholdBytes > highestSacked) {
			break
		}
		isLost := false
		if c.cfg.Sem.ByteStream {
			// The SACK-threshold rule applies to first transmissions only:
			// for a retransmission, data above it being SACKed says nothing
			// about the retransmission itself (RFC 6675 keeps separate
			// retransmission state; without this guard every repair would
			// be re-declared lost by the very next ack).
			if !sp.Chunk.rexmit && highestSacked >= 0 &&
				sp.Chunk.connOff+int64(sp.Chunk.len)+thresholdBytes <= highestSacked {
				isLost = true
			}
		} else {
			if c.largestAcked >= sp.PN+int64(c.cfg.Sem.LossThresholdSegments) {
				isLost = true
			}
		}
		// Time threshold applies only when something newer was acked.
		if !isLost && c.largestAcked > sp.PN &&
			now-time.Duration(sp.SentAt) > timeThresh && c.rtt.HasSample() {
			isLost = true
		}
		if isLost {
			sp.Lost = true
			if len(lost) == 0 {
				from = i
			}
			lost = append(lost, sp)
		}
	}
	c.lossScratch = lost[:0]
	if len(lost) == 0 {
		return from, 0
	}
	for _, sp := range lost {
		c.inFlight -= sp.Chunk.len
		if c.inFlight < 0 {
			c.inFlight = 0
		}
		c.enqueueRexmit(sp.Chunk)
	}
	if !c.inRecovery {
		c.cfg.CC.OnLoss(now, lost[0].Chunk.len, c.inFlight)
		c.inRecovery = true
		c.recoverOff = c.highestSentOff
		c.recoverPN = c.nextPN
	}
	return from, len(lost)
}

// updateRecovery ends the recovery epoch once the loss event's data has been
// repaired (cumulative progress past the epoch marker).
func (c *Conn) updateRecovery(cumAck int64) {
	if !c.inRecovery {
		return
	}
	if c.cfg.Sem.ByteStream {
		if cumAck >= c.recoverOff {
			c.inRecovery = false
		}
	} else if c.largestAcked >= c.recoverPN {
		c.inRecovery = false
	}
}
