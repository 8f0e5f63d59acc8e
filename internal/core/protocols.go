// Package core is the public orchestration API of the reproduction: the
// Table 1 protocol catalog, a Testbed that records page-load videos across
// the site × network × protocol grid (with caching and parallel execution),
// and the StudyPipeline that turns recordings into simulated user-study
// outcomes (votes, ratings, funnels) ready for the per-figure analyses.
package core

import (
	"fmt"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// Handshake flight sizes in bytes. TCP+TLS 1.3 establishes in 2 RTT: SYN,
// SYN-ACK, the ClientHello, the server flight (ServerHello,
// EncryptedExtensions, Certificate, Finished) and the client Finished,
// sized like a typical RSA-cert exchange. gQUIC in the paper's fresh-cache
// setting establishes in 1 RTT: a client hello against a known server
// config, answered by the server hello.
const (
	synBytes          = 60
	synAckBytes       = 60
	clientHelloBytes  = 350
	serverFlightBytes = 2900
	clientFinBytes    = 80
	chloBytes         = 1200 // padded per gQUIC anti-amplification
	shloBytes         = 900  // server hello + crypto params
)

// Receive buffers in bytes.
const (
	// stockRecvBuf approximates Linux's effective default receive buffer
	// before window tuning (tcp_rmem default with moderate autotuning
	// headroom); it is also the floor of the tuned buffers.
	stockRecvBuf = 256 << 10
	// quicRecvBuf is the gQUIC stack's generous per-connection
	// flow-control budget.
	quicRecvBuf = 6 << 20
)

// tcpSem is TCP: one in-order byte stream, cumulative ACK + 3 SACK blocks,
// 40 ms delayed acks, IP+TCP headers, and the 2-RTT TCP+TLS 1.3 script.
var tcpSem = transport.Semantics{
	ByteStream:            true,
	MaxSackBlocks:         3,
	AckEvery:              2,
	AckDelay:              40 * time.Millisecond,
	PacketOverhead:        40, // IPv4 20 + TCP 20 (options amortized)
	LossThresholdSegments: 3,
	Handshake: []transport.HandshakeStep{
		{FromClient: true, Bytes: synBytes},
		{FromClient: false, Bytes: synAckBytes},
		{FromClient: true, Bytes: clientHelloBytes},
		{FromClient: false, Bytes: serverFlightBytes},
		{FromClient: true, Bytes: clientFinBytes},
	},
}

// quicSem is gQUIC: per-stream delivery, packet-number ack ranges, 25 ms
// max ack delay, UDP+QUIC headers, and the 1-RTT script.
var quicSem = transport.Semantics{
	MaxAckRanges:          256,
	AckEvery:              2,
	AckDelay:              25 * time.Millisecond,
	PacketOverhead:        37, // IPv4 20 + UDP 8 + short header ~9
	LossThresholdSegments: 3,
	Handshake: []transport.HandshakeStep{
		{FromClient: true, Bytes: chloBytes},
		{FromClient: false, Bytes: shloBytes},
	},
}

// preset is one row of the stack table.
type preset struct {
	stack transport.Stack
	// tunedBuf sizes the receive buffer from the network ("enlarge the
	// send and receive buffers according to the bandwidth-delay product"):
	// 4×BDP, never below the stock default.
	tunedBuf bool
	// table1 is the row's Table 1 description; the variants outside
	// Table 1 have none.
	table1 string
}

// presets is the stack table: the five Table 1 stacks in paper order, then
// the variants Protocol also accepts, each a preset with one override —
// QUIC-0RTT (extension E1: a repeat visit with a cached server config, so
// the request rides the client hello in a one-flight handshake) and
// QUIC-nopacing.
var presets = func() []preset {
	quic := transport.Stack{Name: "QUIC", CC: "cubic", IWSegments: 32, Pacing: true, RecvBuf: quicRecvBuf, Sem: quicSem}
	zeroRTT, noPacing := quic, quic
	zeroRTT.Name, zeroRTT.Sem.Handshake = "QUIC-0RTT", []transport.HandshakeStep{{FromClient: true, Bytes: chloBytes}}
	noPacing.Name, noPacing.Pacing = "QUIC-nopacing", false
	return []preset{
		{stack: transport.Stack{Name: "TCP", CC: "cubic", IWSegments: 10, SlowStartAfterIdle: true, RecvBuf: stockRecvBuf, Sem: tcpSem},
			table1: "Stock TCP (Linux): IW10, Cubic"},
		{stack: transport.Stack{Name: "TCP+", CC: "cubic", IWSegments: 32, Pacing: true, Sem: tcpSem}, tunedBuf: true,
			table1: "IW32, Pacing, Cubic, tuned buffers, no slow start after idle"},
		{stack: transport.Stack{Name: "TCP+BBR", CC: "bbr", IWSegments: 32, Pacing: true, Sem: tcpSem}, tunedBuf: true,
			table1: "TCP+, but with BBRv1 as congestion control"},
		{stack: quic, table1: "Stock Google QUIC: IW 32, Pacing, Cubic"},
		{stack: transport.Stack{Name: "QUIC+BBR", CC: "bbr", IWSegments: 32, Pacing: true, RecvBuf: quicRecvBuf, Sem: quicSem},
			table1: "QUIC, but with BBRv1 as congestion control"},
		{stack: zeroRTT},
		{stack: noPacing},
	}
}()

// ProtocolNames lists the Table 1 rows in paper order.
func ProtocolNames() []string {
	var names []string
	for _, p := range presets {
		if p.table1 != "" {
			names = append(names, p.stack.Name)
		}
	}
	return names
}

// Protocol returns the named stack parameterized for the given network (the
// tuned TCP buffers depend on the BDP, like the paper's testbed
// reconfiguration step).
func Protocol(name string, net simnet.NetworkConfig) (transport.Stack, error) {
	for _, p := range presets {
		if p.stack.Name != name {
			continue
		}
		s := p.stack
		if p.tunedBuf {
			s.RecvBuf = max(int64(4*net.BDPBytes()), stockRecvBuf)
		}
		return s, nil
	}
	return transport.Stack{}, fmt.Errorf("core: unknown protocol %q", name)
}

// MustProtocol panics on unknown names; for use with the fixed catalog.
func MustProtocol(name string, net simnet.NetworkConfig) transport.Stack {
	s, err := Protocol(name, net)
	if err != nil {
		panic(err)
	}
	return s
}

// Table1Row describes one protocol configuration for the Table 1 printer.
type Table1Row struct {
	Protocol    string
	Description string
}

// Table1 returns the protocol-configuration table verbatim.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, p := range presets {
		if p.table1 != "" {
			rows = append(rows, Table1Row{p.stack.Name, p.table1})
		}
	}
	return rows
}
