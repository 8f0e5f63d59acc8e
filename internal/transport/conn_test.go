package transport

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/congestion"
	"repro/internal/simnet"
)

// testSemantics returns TCP-like or QUIC-like semantics with a trivial or
// scripted handshake.
func tcpLikeSem(handshake bool) Semantics {
	s := Semantics{
		ByteStream:            true,
		MaxSackBlocks:         3,
		AckEvery:              2,
		AckDelay:              40 * time.Millisecond,
		PacketOverhead:        40,
		LossThresholdSegments: 3,
	}
	if handshake {
		s.Handshake = []HandshakeStep{
			{FromClient: true, Bytes: 60},
			{FromClient: false, Bytes: 60},
			{FromClient: true, Bytes: 350},
			{FromClient: false, Bytes: 2900},
			{FromClient: true, Bytes: 80},
		}
	}
	return s
}

func quicLikeSem(handshake bool) Semantics {
	s := Semantics{
		ByteStream:            false,
		MaxAckRanges:          256,
		AckEvery:              2,
		AckDelay:              25 * time.Millisecond,
		PacketOverhead:        37,
		LossThresholdSegments: 3,
	}
	if handshake {
		s.Handshake = []HandshakeStep{
			{FromClient: true, Bytes: 1200},
			{FromClient: false, Bytes: 900},
		}
	}
	return s
}

func newCC() congestion.Controller {
	return congestion.NewCubic(congestion.Config{InitialWindowSegments: 10, MSS: congestion.DefaultMSS})
}

type pairEnv struct {
	sim    *simnet.Simulator
	net    *Network
	client *Conn
	server *Conn
}

func newPair(t *testing.T, netCfg simnet.NetworkConfig, sem Semantics, seed int64) *pairEnv {
	t.Helper()
	sim := simnet.New(seed)
	n := NewNetwork(sim, netCfg)
	ccfg := Config{MSS: congestion.DefaultMSS, CC: newCC(), RecvBuf: 1 << 22, Sem: sem}
	scfg := Config{MSS: congestion.DefaultMSS, CC: newCC(), RecvBuf: 1 << 22, Sem: sem}
	c, s := n.NewConnPair(ccfg, scfg)
	return &pairEnv{sim: sim, net: n, client: c, server: s}
}

func TestTransferSimpleByteStream(t *testing.T) {
	env := newPair(t, simnet.DSL, tcpLikeSem(false), 1)
	var got int64
	var fin bool
	env.client.OnStreamData = func(id int, total int64, f bool) {
		if id == 1 {
			got = total
			fin = fin || f
		}
	}
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 100_000, true)
	env.sim.Run()
	if got != 100_000 || !fin {
		t.Fatalf("delivered %d fin=%v", got, fin)
	}
	if env.server.Stats.Retransmissions != 0 {
		t.Fatalf("unexpected retransmissions on clean link: %d", env.server.Stats.Retransmissions)
	}
}

func TestTransferSimplePerStream(t *testing.T) {
	env := newPair(t, simnet.DSL, quicLikeSem(false), 1)
	totals := map[int]int64{}
	env.client.OnStreamData = func(id int, total int64, f bool) { totals[id] = total }
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 50_000, true)
	env.server.WriteStream(2, 70_000, true)
	env.sim.Run()
	if totals[1] != 50_000 || totals[2] != 70_000 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestHandshakeTCPTwoRTT(t *testing.T) {
	env := newPair(t, simnet.DSL, tcpLikeSem(true), 1)
	var clientAt, serverAt time.Duration
	env.client.OnEstablished = func() { clientAt = env.sim.Now() }
	env.server.OnEstablished = func() { serverAt = env.sim.Now() }
	env.client.Start()
	env.server.Start()
	env.sim.Run()
	rtt := simnet.DSL.MinRTT
	// Client establishes after SYN/SYNACK + CH/ServerFlight: ~2 RTT.
	if clientAt < 2*rtt || clientAt > 2*rtt+20*time.Millisecond {
		t.Fatalf("client established at %v, want ~%v", clientAt, 2*rtt)
	}
	// Server establishes half an RTT later (on the client Fin).
	if serverAt <= clientAt {
		t.Fatalf("server (%v) should establish after client (%v)", serverAt, clientAt)
	}
}

func TestHandshakeQUICOneRTT(t *testing.T) {
	env := newPair(t, simnet.DSL, quicLikeSem(true), 1)
	var clientAt time.Duration
	env.client.OnEstablished = func() { clientAt = env.sim.Now() }
	env.client.Start()
	env.server.Start()
	env.sim.Run()
	rtt := simnet.DSL.MinRTT
	if clientAt < rtt || clientAt > rtt+20*time.Millisecond {
		t.Fatalf("client established at %v, want ~%v (1-RTT)", clientAt, rtt)
	}
}

func TestHandshakeZeroRTTScript(t *testing.T) {
	// A script with a single client flight models 0-RTT: the client is
	// established immediately (it has nothing to receive).
	sem := quicLikeSem(false)
	sem.Handshake = []HandshakeStep{{FromClient: true, Bytes: 1200}}
	env := newPair(t, simnet.DSL, sem, 1)
	env.client.Start()
	env.server.Start()
	if !env.client.established {
		t.Fatal("0-RTT client should be established at Start")
	}
	env.sim.Run()
	if !env.server.established {
		t.Fatal("server should establish on CHLO receipt")
	}
}

func TestHandshakeSurvivesLoss(t *testing.T) {
	// 30% loss: handshakes must still complete via retransmission.
	cfg := simnet.DSL
	cfg.LossRate = 0.30
	for seed := int64(1); seed <= 5; seed++ {
		env := newPair(t, cfg, tcpLikeSem(true), seed)
		env.client.Start()
		env.server.Start()
		env.sim.RunUntil(3 * time.Minute)
		if !env.client.established {
			t.Fatalf("seed %d: client never established", seed)
		}
	}
}

func TestTransferDataAfterEstablish(t *testing.T) {
	env := newPair(t, simnet.LTE, quicLikeSem(true), 2)
	var done time.Duration
	env.client.OnStreamData = func(id int, total int64, fin bool) {
		if fin {
			done = env.sim.Now()
		}
	}
	env.client.Start()
	env.server.Start()
	// Data queued before establishment waits for the handshake.
	env.server.WriteStream(1, 20_000, true)
	env.sim.Run()
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	if done < simnet.LTE.MinRTT {
		t.Fatalf("data cannot arrive before a full RTT, got %v", done)
	}
}

func TestTransferWithRandomLossCompletes(t *testing.T) {
	cfg := simnet.DA2GC // 3.3% loss, slow symmetric link
	for _, mk := range []struct {
		name string
		sem  Semantics
	}{{"tcp", tcpLikeSem(true)}, {"quic", quicLikeSem(true)}} {
		env := newPair(t, cfg, mk.sem, 3)
		var got int64
		var fin bool
		env.client.OnStreamData = func(id int, total int64, f bool) {
			got = total
			fin = fin || f
		}
		env.client.Start()
		env.server.Start()
		env.server.WriteStream(1, 300_000, true)
		env.sim.RunUntil(5 * time.Minute)
		if got != 300_000 || !fin {
			t.Fatalf("%s: delivered %d fin=%v (retx=%d rtos=%d)",
				mk.name, got, fin, env.server.Stats.Retransmissions, env.server.Stats.RTOs)
		}
		if env.server.Stats.Retransmissions == 0 {
			t.Fatalf("%s: expected retransmissions on a lossy link", mk.name)
		}
	}
}

func TestByteStreamHOLBlocking(t *testing.T) {
	// Two streams multiplexed on a TCP-like connection: drop the very first
	// data packet (stream 1). Stream 2 data behind it must NOT be delivered
	// until the retransmission fills the hole — cross-stream HOL blocking.
	env := newPair(t, simnet.DSL, tcpLikeSem(false), 1)

	var deliveries []int
	env.client.OnStreamData = func(id int, total int64, fin bool) {
		deliveries = append(deliveries, id)
	}
	// Intercept the first data frame on the downlink and drop it.
	dropped := false
	orig := env.net.Path.Down.Deliver
	env.net.Path.Down.Deliver = func(f simnet.Frame) {
		if pkt, ok := f.Payload.(*Packet); ok && pkt.Kind == KindData && !dropped {
			dropped = true
			return
		}
		orig(f)
	}
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 1460, true)
	env.server.WriteStream(2, 1460, true)
	env.sim.Run()
	if !dropped {
		t.Fatal("test setup: no data frame was dropped")
	}
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	// Stream 1's retransmission must arrive before stream 2 unblocks.
	if deliveries[0] != 1 || deliveries[1] != 2 {
		t.Fatalf("HOL violated: delivery order %v, want [1 2]", deliveries)
	}
}

func TestPerStreamNoHOLBlocking(t *testing.T) {
	// Same scenario over QUIC-like semantics: stream 2 must be delivered
	// while stream 1's loss is still outstanding.
	env := newPair(t, simnet.DSL, quicLikeSem(false), 1)
	var deliveries []int
	env.client.OnStreamData = func(id int, total int64, fin bool) {
		deliveries = append(deliveries, id)
	}
	dropped := false
	orig := env.net.Path.Down.Deliver
	env.net.Path.Down.Deliver = func(f simnet.Frame) {
		if pkt, ok := f.Payload.(*Packet); ok && pkt.Kind == KindData && !dropped {
			dropped = true
			return
		}
		orig(f)
	}
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 1460, true)
	env.server.WriteStream(2, 1460, true)
	env.sim.Run()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	if deliveries[0] != 2 {
		t.Fatalf("QUIC should deliver stream 2 first (no HOL), got %v", deliveries)
	}
}

func TestRTOFiresAndRecovers(t *testing.T) {
	// Drop an entire window tail so only an RTO can recover.
	cfg := simnet.DSL
	env := newPair(t, cfg, tcpLikeSem(false), 1)
	var fin bool
	env.client.OnStreamData = func(id int, total int64, f bool) { fin = fin || f }
	// Drop data frames 3..6 (the tail of the first flight) once.
	seen := 0
	orig := env.net.Path.Down.Deliver
	env.net.Path.Down.Deliver = func(f simnet.Frame) {
		if pkt, ok := f.Payload.(*Packet); ok && pkt.Kind == KindData {
			seen++
			if seen >= 4 && seen <= 7 {
				return
			}
		}
		orig(f)
	}
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 7*1460, true)
	env.sim.RunUntil(time.Minute)
	if !fin {
		t.Fatalf("transfer stuck after tail loss (rtos=%d)", env.server.Stats.RTOs)
	}
}

func TestRequestResponseBothDirections(t *testing.T) {
	env := newPair(t, simnet.LTE, tcpLikeSem(true), 4)
	var respDone bool
	env.server.OnStreamData = func(id int, total int64, fin bool) {
		if fin { // request fully received -> respond on same stream
			env.server.WriteStream(id, 40_000, true)
		}
	}
	env.client.OnStreamData = func(id int, total int64, fin bool) {
		respDone = respDone || fin
	}
	env.client.OnEstablished = func() {
		env.client.WriteStream(1, 400, true)
	}
	env.client.Start()
	env.server.Start()
	env.sim.Run()
	if !respDone {
		t.Fatal("request/response round trip failed")
	}
}

func TestStatsAccounting(t *testing.T) {
	env := newPair(t, simnet.DSL, tcpLikeSem(false), 1)
	env.client.OnStreamData = func(int, int64, bool) {}
	env.client.Start()
	env.server.Start()
	env.server.WriteStream(1, 50_000, true)
	env.sim.Run()
	if env.server.Stats.BytesSent != 50_000 {
		t.Fatalf("BytesSent = %d", env.server.Stats.BytesSent)
	}
	if env.client.Stats.BytesDelivered != 50_000 {
		t.Fatalf("BytesDelivered = %d", env.client.Stats.BytesDelivered)
	}
	if env.client.Stats.AcksSent == 0 {
		t.Fatal("client should have sent acks")
	}
}

func TestWriteStreamPanicsOnNonPositive(t *testing.T) {
	env := newPair(t, simnet.DSL, tcpLikeSem(false), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	env.server.WriteStream(1, 0, true)
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// A 2 MB transfer on DSL (25 Mbps down) should finish in roughly
	// size/rate plus slow-start; sanity bound: between the ideal time and
	// 3x the ideal time.
	env := newPair(t, simnet.DSL, tcpLikeSem(false), 5)
	var done time.Duration
	env.client.OnStreamData = func(id int, total int64, fin bool) {
		if fin {
			done = env.sim.Now()
		}
	}
	env.client.Start()
	env.server.Start()
	const size = 2 << 20
	env.server.WriteStream(1, size, true)
	env.sim.RunUntil(2 * time.Minute)
	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	ideal := time.Duration(float64(size*8) / 25e6 * float64(time.Second))
	if done < ideal {
		t.Fatalf("faster than the link allows: %v < %v", done, ideal)
	}
	if done > 3*ideal {
		t.Fatalf("too slow: %v vs ideal %v", done, ideal)
	}
}

func TestNetworkDispatchesMultipleConns(t *testing.T) {
	sim := simnet.New(9)
	n := NewNetwork(sim, simnet.DSL)
	finCount := 0
	for i := 0; i < 3; i++ {
		cfg := Config{MSS: congestion.DefaultMSS, CC: newCC(), RecvBuf: 1 << 22, Sem: quicLikeSem(true)}
		scfg := Config{MSS: congestion.DefaultMSS, CC: newCC(), RecvBuf: 1 << 22, Sem: quicLikeSem(true)}
		c, s := n.NewConnPair(cfg, scfg)
		c.OnStreamData = func(id int, total int64, fin bool) {
			if fin {
				finCount++
			}
		}
		c.Start()
		s.Start()
		s.WriteStream(1, 30_000, true)
	}
	if n.Conns() != 3 {
		t.Fatalf("conns = %d", n.Conns())
	}
	sim.Run()
	if finCount != 3 {
		t.Fatalf("finCount = %d", finCount)
	}
}

// TestMarkAckedMatchesNaive checks markAcked against a naive "some range
// holds the record" scan, in both modes. The outstanding records ascend in
// PN with gaps, some already acked or lost. In packet-number mode the ack
// ranges come from a received set with more holes than the 256 ranges an
// ack carries, so the lowest PNs fall outside every range. In byte-stream
// mode retransmissions (higher PNs, lower connection offsets) are mixed into
// the first transmissions, and the SACK scoreboard holds a cumulative prefix
// and scattered blocks, one ending exactly at a record's end, below the top
// of the sent bytes. After compactSent, told of the records marked here and
// in the setup, the sent list must hold exactly the naive survivors.
func TestMarkAckedMatchesNaive(t *testing.T) {
	mss := congestion.DefaultMSS
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byteStream := seed%2 == 0
		sem := quicLikeSem(false)
		if byteStream {
			sem = tcpLikeSem(false)
		}
		c := NewConn(simnet.New(seed), Config{CC: newCC(), Sem: sem}, func(simnet.Frame) {})
		const top = 3000
		var recs []*SentPacket
		var firsts []chunk
		var connOff int64
		for pn := int64(0); pn < top+50; pn += 1 + rng.Int63n(3) {
			sp := &SentPacket{PN: pn, Chunk: chunk{streamID: 1, len: mss, connOff: -1}}
			if byteStream {
				if len(firsts) > 0 && rng.Intn(4) == 0 {
					sp.Chunk = firsts[rng.Intn(len(firsts))]
					sp.Chunk.rexmit = true
				} else {
					sp.Chunk.len = 1 + rng.Intn(mss)
					sp.Chunk.connOff = connOff
					connOff += int64(sp.Chunk.len)
					firsts = append(firsts, sp.Chunk)
				}
			}
			switch rng.Intn(6) {
			case 0:
				sp.Acked = true
			case 1:
				sp.Lost = true
			}
			recs = append(recs, sp)
		}

		var ranges []Range
		if byteStream {
			c.ackedBytes.Add(0, connOff/8)
			for k := 0; k < 40; k++ {
				lo := rng.Int63n(connOff * 3 / 4)
				c.ackedBytes.Add(lo, lo+1+rng.Int63n(int64(20*mss)))
			}
			f := firsts[len(firsts)*7/8]
			c.ackedBytes.Add(f.connOff-int64(mss), f.connOff+int64(f.len))
			ranges = c.ackedBytes.AppendAbove(nil, 0, 3)
		} else {
			var rcv RangeSet
			for pn := int64(0); pn < top; pn++ {
				if rng.Intn(3) != 0 {
					rcv.Add(pn, pn+1)
				}
			}
			if len(rcv.rs) <= 257 {
				t.Fatalf("seed %d: received set has %d ranges, want > 257", seed, len(rcv.rs))
			}
			ranges = rcv.AppendAbove(nil, 0, 256)
		}
		holds := func(sp *SentPacket) bool {
			lo, hi := sp.PN, sp.PN+1
			rs := ranges
			if byteStream {
				lo, hi = sp.Chunk.connOff, sp.Chunk.connOff+int64(sp.Chunk.len)
				rs = c.ackedBytes.rs
			}
			for _, r := range rs {
				if r.Start <= lo && hi <= r.End {
					return true
				}
			}
			return false
		}

		wantAcked := map[*SentPacket]bool{}
		var wantNew, wantLive []int64
		preFrom, preDead := math.MaxInt, 0 // no record marked yet
		rexmitsAcked := 0
		for _, sp := range recs {
			if sp.Acked || sp.Lost {
				if preDead == 0 {
					preFrom = c.sent.len()
				}
				preDead++
			}
			c.sent.push(sp)
			inRange := holds(sp)
			if !sp.Acked && !sp.Lost && inRange {
				wantNew = append(wantNew, sp.PN)
				if sp.Chunk.rexmit {
					rexmitsAcked++
				}
			}
			wantAcked[sp] = sp.Acked || (!sp.Lost && inRange)
			if !wantAcked[sp] && !sp.Lost {
				wantLive = append(wantLive, sp.PN)
			}
		}
		if byteStream && (rexmitsAcked == 0 || len(wantLive) == 0) {
			t.Fatalf("seed %d: %d retransmissions newly acked and %d records left live; the case checks nothing", seed, rexmitsAcked, len(wantLive))
		}

		got, from := c.markAcked(ranges)
		if len(got) != len(wantNew) {
			t.Fatalf("seed %d (ByteStream=%v): %d records newly acked, want %d", seed, byteStream, len(got), len(wantNew))
		}
		for i, sp := range got {
			if sp.PN != wantNew[i] {
				t.Fatalf("seed %d: newly acked #%d is PN %d, want %d", seed, i, sp.PN, wantNew[i])
			}
		}
		for sp, want := range wantAcked {
			if sp.Acked != want {
				t.Fatalf("seed %d: PN %d Acked = %v, want %v", seed, sp.PN, sp.Acked, want)
			}
		}
		if len(got) > 0 && got[0] != c.sent.live()[from] {
			t.Fatalf("seed %d: first newly acked reported at offset %d, which holds PN %d", seed, from, c.sent.live()[from].PN)
		}
		c.compactSent(min(from, preFrom), len(got)+preDead)
		checkSentPNs(t, seed, c, wantLive)
	}
}

// checkSentPNs asserts that c's sent list holds exactly the records with the
// given PNs, in that order.
func checkSentPNs(t *testing.T, seed int64, c *Conn, want []int64) {
	t.Helper()
	live := c.sent.live()
	if len(live) != len(want) {
		t.Fatalf("seed %d: sent list holds %d records after compaction, want %d", seed, len(live), len(want))
	}
	for i, sp := range live {
		if sp.PN != want[i] || sp.Acked || sp.Lost {
			t.Fatalf("seed %d: sent record #%d is PN %d (acked %v, lost %v), want live PN %d", seed, i, sp.PN, sp.Acked, sp.Lost, want[i])
		}
	}
}

// TestWholeWriteQueueMatchesMSSSplit checks that carving chunks off whole
// queued writes transmits exactly what splitting each write into MSS-sized
// chunks up front did: the same (stream, offset, length, fin, connOff)
// sequence, in both delivery modes, with two streams' writes interleaved
// and the congestion window stopping the sender mid-write.
func TestWholeWriteQueueMatchesMSSSplit(t *testing.T) {
	type write struct {
		stream int
		n      int64
		fin    bool
	}
	mss := int64(congestion.DefaultMSS)
	writes := []write{
		{1, 10*mss + 123, false},
		{2, 700, false},
		{1, 3*mss + 1, false},
		{2, 25*mss + 999, true},
		{1, mss - 1, true},
	}
	for _, sem := range []Semantics{tcpLikeSem(false), quicLikeSem(false)} {
		// The reference: every write split into MSS chunks when queued.
		var want []chunk
		offs := map[int]int64{}
		var connOff int64
		for _, w := range writes {
			for done := int64(0); done < w.n; {
				sz := min(mss, w.n-done)
				ch := chunk{streamID: w.stream, streamOff: offs[w.stream] + done, len: int(sz),
					fin: w.fin && done+sz == w.n, connOff: -1}
				if sem.ByteStream {
					ch.connOff = connOff
					connOff += sz
				}
				want = append(want, ch)
				done += sz
			}
			offs[w.stream] += w.n
		}

		env := newPair(t, simnet.DSL, sem, 1)
		var got []chunk
		send := env.server.out
		env.server.out = func(f simnet.Frame) {
			if p := f.Payload.(*Packet); p.Kind == KindData && !p.Rexmit {
				got = append(got, chunk{streamID: p.StreamID, streamOff: p.StreamOff,
					len: p.PayloadLen, fin: p.Fin, connOff: p.ConnOff})
			}
			send(f)
		}
		env.client.Start()
		env.server.Start()
		for _, w := range writes {
			env.server.WriteStream(w.stream, w.n, w.fin)
		}
		env.sim.Run()
		if len(got) != len(want) {
			t.Fatalf("ByteStream=%v: %d chunks sent, want %d", sem.ByteStream, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ByteStream=%v: chunk #%d = %+v, want %+v", sem.ByteStream, i, got[i], want[i])
			}
		}
	}
}

// TestDetectLossesMatchesFullWalk checks the early-exit loss walk against the
// two rules applied to every outstanding record. Both modes: in byte-stream
// mode retransmissions (higher PNs, lower connection offsets) are mixed into
// the first transmissions, and the highest SACKed byte sits on, just below
// or just above a first transmission's threshold edge; largestAcked sits on
// or beside an outstanding record's PN. After compactSent, told of the records
// marked here and in the setup, the sent list must hold exactly the records
// the full walk leaves outstanding.
func TestDetectLossesMatchesFullWalk(t *testing.T) {
	mss := congestion.DefaultMSS
	lostTotal := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sem := quicLikeSem(false)
		if seed%2 == 0 {
			sem = tcpLikeSem(false)
		}
		sim := simnet.New(seed)
		c := NewConn(sim, Config{CC: newCC(), Sem: sem}, func(simnet.Frame) {})
		c.rtt.AddSample(20 * time.Millisecond)
		thr := int64(sem.LossThresholdSegments * mss)

		var recs []*SentPacket
		var firsts []chunk
		var connOff, pn int64
		preFrom, preDead := math.MaxInt, 0 // no record marked yet
		var clock time.Duration
		for i := 0; i < 60; i++ {
			pn += 1 + rng.Int63n(2)
			clock += time.Duration(rng.Intn(4)) * time.Millisecond
			ch := chunk{streamID: 1, streamOff: int64(i * mss), len: mss, connOff: -1}
			if sem.ByteStream {
				if len(firsts) > 0 && rng.Intn(4) == 0 {
					ch = firsts[rng.Intn(len(firsts))]
					ch.rexmit = true
				} else {
					ch.len = 1 + rng.Intn(mss)
					ch.connOff = connOff
					connOff += int64(ch.len)
					firsts = append(firsts, ch)
				}
			}
			sp := &SentPacket{PN: pn, SentAt: int64(clock), Chunk: ch}
			switch rng.Intn(6) {
			case 0:
				sp.Acked = true
			case 1:
				sp.Lost = true
			default:
				c.inFlight += ch.len
			}
			if sp.Acked || sp.Lost {
				if preDead == 0 {
					preFrom = i
				}
				preDead++
			}
			c.sent.push(sp)
			recs = append(recs, sp)
		}
		c.largestAcked = recs[rng.Intn(len(recs))].PN + rng.Int63n(3) - 1
		if rng.Intn(10) == 0 {
			c.largestAcked = -1
		}
		if sem.ByteStream && rng.Intn(8) > 0 {
			f := firsts[rng.Intn(len(firsts))]
			edge := f.connOff + int64(f.len) + thr + rng.Int63n(3) - 1
			c.ackedBytes.Add(edge-int64(mss), edge)
		}
		sim.RunUntil(clock + time.Duration(rng.Intn(60))*time.Millisecond)

		// The full walk: every outstanding record against both rules.
		now := sim.Now()
		timeThresh := c.rtt.SRTT() * 5 / 4
		var highestSacked int64 = -1
		if r, ok := c.ackedBytes.Last(); ok {
			highestSacked = r.End
		}
		want := map[*SentPacket]bool{}
		wantInFlight := 0
		var wantLive []int64
		for _, sp := range recs {
			if sp.Acked || sp.Lost {
				want[sp] = sp.Lost
				continue
			}
			lost := false
			if sem.ByteStream {
				lost = !sp.Chunk.rexmit && highestSacked >= 0 &&
					sp.Chunk.connOff+int64(sp.Chunk.len)+thr <= highestSacked
			} else {
				lost = c.largestAcked >= sp.PN+int64(sem.LossThresholdSegments)
			}
			if c.largestAcked > sp.PN && now-time.Duration(sp.SentAt) > timeThresh {
				lost = true
			}
			want[sp] = lost
			if lost {
				lostTotal++
			} else {
				wantInFlight += sp.Chunk.len
				wantLive = append(wantLive, sp.PN)
			}
		}

		from, n := c.detectLosses()
		for _, sp := range recs {
			if sp.Lost != want[sp] {
				t.Fatalf("seed %d (ByteStream=%v): PN %d (rexmit %v, connOff %d) Lost = %v, full walk says %v; largestAcked %d highestSacked %d",
					seed, sem.ByteStream, sp.PN, sp.Chunk.rexmit, sp.Chunk.connOff, sp.Lost, want[sp], c.largestAcked, highestSacked)
			}
		}
		if c.inFlight != wantInFlight {
			t.Fatalf("seed %d: inFlight %d after loss detection, want %d", seed, c.inFlight, wantInFlight)
		}
		if n > 0 && (!recs[from].Lost || recs[from].PN != c.sent.live()[from].PN) {
			t.Fatalf("seed %d: first lost record reported at offset %d, PN %d", seed, from, recs[from].PN)
		}
		c.compactSent(min(from, preFrom), n+preDead)
		checkSentPNs(t, seed, c, wantLive)
	}
	if lostTotal == 0 {
		t.Fatal("no record was ever declared lost")
	}
}

// TestRcvWindowMatchesRecount checks the advertised window, and in
// packet-number mode the incrementally kept held-byte count, against a
// recount over every reassembly range after every packet the receiver
// takes in, for a lossy transfer of three interleaved streams in both
// delivery modes.
func TestRcvWindowMatchesRecount(t *testing.T) {
	for _, sem := range []Semantics{quicLikeSem(true), tcpLikeSem(true)} {
		sim := simnet.New(7)
		var client, server *Conn
		maxHeld := int64(0)
		path := simnet.NewPath(sim, simnet.MSS,
			func(f simnet.Frame) { server.Receive(f.Payload.(*Packet)) },
			func(f simnet.Frame) {
				client.Receive(f.Payload.(*Packet))
				held := recountHeld(client)
				if !sem.ByteStream && client.rcvHeld != held {
					t.Fatalf("rcvHeld = %d, recount %d", client.rcvHeld, held)
				}
				if got, want := client.rcvWindow(), max(client.cfg.RecvBuf-held, int64(client.cfg.MSS)); got != want {
					t.Fatalf("ByteStream=%v: rcvWindow = %d, recount gives %d", sem.ByteStream, got, want)
				}
				maxHeld = max(maxHeld, held)
			})
		cfg := Config{MSS: congestion.DefaultMSS, RecvBuf: 1 << 22, Sem: sem}
		ccfg, scfg := cfg, cfg
		ccfg.CC, scfg.CC = newCC(), newCC()
		ccfg.Role, scfg.Role = RoleClient, RoleServer
		client = NewConn(sim, ccfg, func(f simnet.Frame) { path.Up.Send(f) })
		server = NewConn(sim, scfg, func(f simnet.Frame) { path.Down.Send(f) })
		done := 0
		client.OnStreamData = func(_ int, _ int64, fin bool) {
			if fin {
				done++
			}
		}
		client.Start()
		server.Start()
		for id := 1; id <= 3; id++ {
			server.WriteStream(id, 150_000+int64(id)*777, true)
		}
		sim.RunUntil(5 * time.Minute)
		if done != 3 {
			t.Fatalf("ByteStream=%v: %d of 3 streams finished", sem.ByteStream, done)
		}
		if maxHeld == 0 {
			t.Fatalf("ByteStream=%v: loss never left bytes held in reassembly", sem.ByteStream)
		}
	}
}

// recountHeld sums the bytes received but not yet delivered in order, from
// the reassembly ranges themselves.
func recountHeld(c *Conn) int64 {
	covered := func(s *RangeSet) int64 {
		var n int64
		for _, r := range s.rs {
			n += r.Len()
		}
		return n
	}
	if c.cfg.Sem.ByteStream {
		return covered(&c.rcvConn) - c.rcvDeliveredTo
	}
	var held int64
	for _, st := range c.streams {
		held += covered(&st.ranges) - st.deliveredTo
	}
	return held
}
