// Package tcpsim_test checks the TCP rows of the stack table (TCP, TCP+ and
// TCP+BBR in internal/core) on their own: the Table 1 fields, the 2-RTT
// TCP/TLS script and completion over every network. The directory holds
// tests only; the stacks are transport.Stack values built by core.Protocol.
package tcpsim_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func TestOptionsTable1Rows(t *testing.T) {
	s := core.MustProtocol("TCP", simnet.LTE)
	if s.IWSegments != 10 || s.Pacing || s.CC != "cubic" || !s.SlowStartAfterIdle {
		t.Fatalf("stock row wrong: %+v", s)
	}
	p := core.MustProtocol("TCP+", simnet.LTE)
	if p.IWSegments != 32 || !p.Pacing || p.CC != "cubic" || p.SlowStartAfterIdle {
		t.Fatalf("TCP+ row wrong: %+v", p)
	}
	if p.RecvBuf < int64(4*simnet.LTE.BDPBytes()) {
		t.Fatalf("tuned buffers should scale with BDP, got %d", p.RecvBuf)
	}
	b := core.MustProtocol("TCP+BBR", simnet.LTE)
	if b.CC != "bbr" || b.Name != "TCP+BBR" {
		t.Fatalf("TCP+BBR row wrong: %+v", b)
	}
}

func TestSemanticsShape(t *testing.T) {
	for _, name := range []string{"TCP", "TCP+", "TCP+BBR"} {
		sem := core.MustProtocol(name, simnet.DSL).Sem
		if !sem.ByteStream {
			t.Fatalf("%s must be a byte stream", name)
		}
		if sem.MaxSackBlocks != 3 {
			t.Fatalf("%s: SACK blocks = %d, want 3", name, sem.MaxSackBlocks)
		}
		if len(sem.Handshake) != 5 {
			t.Fatalf("%s: handshake steps = %d, want 5", name, len(sem.Handshake))
		}
		// Alternating C/S/C/S/C.
		for i, st := range sem.Handshake {
			if st.FromClient != (i%2 == 0) {
				t.Fatalf("%s: step %d direction wrong", name, i)
			}
		}
	}
}

// requestAt runs a request/response exchange and returns when the client got
// the full response.
func requestAt(t *testing.T, stack transport.Stack, netCfg simnet.NetworkConfig, respBytes int64) time.Duration {
	t.Helper()
	sim := simnet.New(11)
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

func TestFirstByteAfterTwoRTT(t *testing.T) {
	// TCP+TLS: request leaves at 2 RTT, response body arrives ~3 RTT.
	done := requestAt(t, core.MustProtocol("TCP", simnet.DSL), simnet.DSL, 1000)
	rtt := simnet.DSL.MinRTT
	if done < 3*rtt {
		t.Fatalf("response before 3 RTT is impossible for 2-RTT TCP/TLS: %v", done)
	}
	if done > 3*rtt+30*time.Millisecond {
		t.Fatalf("response too late: %v (want ~%v)", done, 3*rtt)
	}
}

func TestStockCompletesOnAllNetworks(t *testing.T) {
	for _, n := range simnet.Networks() {
		if d := requestAt(t, core.MustProtocol("TCP", n), n, 50_000); d <= 0 {
			t.Fatalf("%s: no completion", n.Name)
		}
	}
}

func TestBBRCompletesOnLossyNetwork(t *testing.T) {
	if d := requestAt(t, core.MustProtocol("TCP+BBR", simnet.MSS), simnet.MSS, 200_000); d <= 0 {
		t.Fatal("BBR transfer did not complete")
	}
}
