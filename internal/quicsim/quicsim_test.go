// Package quicsim_test checks the QUIC rows of the stack table (QUIC,
// QUIC+BBR and QUIC-0RTT in internal/core) on their own: the Table 1
// fields, the 1-RTT and one-flight 0-RTT scripts and completion over every
// network. The directory holds tests only; the stacks are transport.Stack
// values built by core.Protocol.
package quicsim_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func TestOptionsTable1Rows(t *testing.T) {
	s := core.MustProtocol("QUIC", simnet.DSL)
	if s.CC != "cubic" || s.IWSegments != 32 || !s.Pacing || len(s.Sem.Handshake) != 2 {
		t.Fatalf("stock QUIC row wrong: %+v", s)
	}
	b := core.MustProtocol("QUIC+BBR", simnet.DSL)
	if b.CC != "bbr" || b.Name != "QUIC+BBR" {
		t.Fatalf("QUIC+BBR row wrong: %+v", b)
	}
}

func TestSemanticsShape(t *testing.T) {
	sem := core.MustProtocol("QUIC", simnet.DSL).Sem
	if sem.ByteStream {
		t.Fatal("QUIC must not be a byte stream")
	}
	if sem.MaxAckRanges < 32 {
		t.Fatalf("QUIC ack ranges too limited: %d", sem.MaxAckRanges)
	}
	if len(sem.Handshake) != 2 {
		t.Fatalf("1-RTT handshake should have 2 flights, got %d", len(sem.Handshake))
	}
	z := core.MustProtocol("QUIC-0RTT", simnet.DSL).Sem
	if len(z.Handshake) != 1 {
		t.Fatalf("0-RTT handshake should have 1 flight, got %d", len(z.Handshake))
	}
}

func run(t *testing.T, stack transport.Stack, netCfg simnet.NetworkConfig, respBytes int64) time.Duration {
	t.Helper()
	sim := simnet.New(13)
	net := transport.NewNetwork(sim, netCfg)
	client, server := stack.NewConnPair(net)
	var done time.Duration
	server.OnStreamData = func(id int, total int64, fin bool) {
		if fin {
			server.WriteStream(id, respBytes, true)
		}
	}
	client.OnStreamData = func(id int, total int64, fin bool) {
		if fin {
			done = sim.Now()
		}
	}
	client.OnEstablished = func() { client.WriteStream(1, 300, true) }
	client.Start()
	server.Start()
	sim.RunUntil(5 * time.Minute)
	if done == 0 {
		t.Fatalf("%s on %s: request/response did not complete", stack.Name, netCfg.Name)
	}
	return done
}

func TestFirstByteAfterOneRTT(t *testing.T) {
	// QUIC 1-RTT: request leaves at 1 RTT, response arrives ~2 RTT.
	done := run(t, core.MustProtocol("QUIC", simnet.DSL), simnet.DSL, 1000)
	rtt := simnet.DSL.MinRTT
	if done < 2*rtt {
		t.Fatalf("response before 2 RTT impossible: %v", done)
	}
	if done > 2*rtt+30*time.Millisecond {
		t.Fatalf("response too late: %v (want ~%v)", done, 2*rtt)
	}
}

func TestCompletesOnAllNetworks(t *testing.T) {
	for _, n := range simnet.Networks() {
		if d := run(t, core.MustProtocol("QUIC", n), n, 50_000); d <= 0 {
			t.Fatalf("%s: no completion", n.Name)
		}
	}
}

func TestBBRVariantCompletesOnMSS(t *testing.T) {
	if d := run(t, core.MustProtocol("QUIC+BBR", simnet.MSS), simnet.MSS, 200_000); d <= 0 {
		t.Fatal("QUIC+BBR on MSS did not complete")
	}
}
