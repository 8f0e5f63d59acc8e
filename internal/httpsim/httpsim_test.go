package httpsim_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// stacks returns the Table 1 stacks parameterized for net.
func stacks(net simnet.NetworkConfig) []transport.Stack {
	var out []transport.Stack
	for _, name := range core.ProtocolNames() {
		out = append(out, core.MustProtocol(name, net))
	}
	return out
}

func TestProtocolNames(t *testing.T) {
	want := []string{"TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR"}
	got := stacks(simnet.DSL)
	if len(got) != len(want) {
		t.Fatalf("%d stacks, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("stack %d name = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestSingleFetchAllStacks(t *testing.T) {
	for _, stack := range stacks(simnet.DSL) {
		sim := simnet.New(21)
		net := transport.NewNetwork(sim, simnet.DSL)
		c := httpsim.NewClient(sim, net, stack)
		var last int64
		var done time.Duration
		c.Fetch(0, 100_000, 0,
			func(n int64) { last = n },
			func() { done = sim.Now() })
		sim.RunUntil(time.Minute)
		if done == 0 {
			t.Fatalf("%s: fetch incomplete", stack.Name)
		}
		if last != 100_000 {
			t.Fatalf("%s: progress = %d", stack.Name, last)
		}
		if c.Requests() != 1 {
			t.Fatalf("%s: requests = %d", stack.Name, c.Requests())
		}
	}
}

func TestFetchBeforeEstablishQueues(t *testing.T) {
	sim := simnet.New(3)
	net := transport.NewNetwork(sim, simnet.LTE)
	c := httpsim.NewClient(sim, net, core.MustProtocol("QUIC", simnet.LTE))
	done := 0
	// Two fetches to the same host issued immediately: both must wait for
	// the handshake, then complete.
	c.Fetch(0, 10_000, 0, nil, func() { done++ })
	c.Fetch(0, 20_000, 1, nil, func() { done++ })
	sim.RunUntil(time.Minute)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if c.Conns() != 1 {
		t.Fatalf("conns = %d, want 1 (same host)", c.Conns())
	}
}

func TestPerHostConnections(t *testing.T) {
	sim := simnet.New(3)
	net := transport.NewNetwork(sim, simnet.DSL)
	c := httpsim.NewClient(sim, net, core.MustProtocol("TCP", simnet.DSL))
	done := 0
	for host := 0; host < 4; host++ {
		c.Fetch(host, 5_000, 0, nil, func() { done++ })
	}
	sim.RunUntil(time.Minute)
	if done != 4 || c.Conns() != 4 {
		t.Fatalf("done=%d conns=%d", done, c.Conns())
	}
}

func TestPriorityInterleaving(t *testing.T) {
	// A large low-priority response must not starve a small high-priority
	// response issued slightly later on the same connection.
	sim := simnet.New(5)
	net := transport.NewNetwork(sim, simnet.LTE)
	c := httpsim.NewClient(sim, net, core.MustProtocol("TCP", simnet.LTE))
	var bigDone, smallDone time.Duration
	c.Fetch(0, 2_000_000, 3, nil, func() { bigDone = sim.Now() })
	sim.Schedule(400*time.Millisecond, func() {
		c.Fetch(0, 8_000, 0, nil, func() { smallDone = sim.Now() })
	})
	sim.RunUntil(2 * time.Minute)
	if bigDone == 0 || smallDone == 0 {
		t.Fatalf("big=%v small=%v", bigDone, smallDone)
	}
	if smallDone >= bigDone {
		t.Fatalf("high priority fetch (%v) should finish before the 2MB body (%v)", smallDone, bigDone)
	}
}

func TestRoundRobinWithinPriority(t *testing.T) {
	// Two equal-priority responses interleave: their completion times are
	// much closer than sequential transmission would give.
	sim := simnet.New(7)
	net := transport.NewNetwork(sim, simnet.LTE)
	c := httpsim.NewClient(sim, net, core.MustProtocol("QUIC", simnet.LTE))
	var d1, d2 time.Duration
	c.Fetch(0, 400_000, 3, nil, func() { d1 = sim.Now() })
	c.Fetch(0, 400_000, 3, nil, func() { d2 = sim.Now() })
	sim.RunUntil(2 * time.Minute)
	if d1 == 0 || d2 == 0 {
		t.Fatal("incomplete")
	}
	gap := d2 - d1
	if gap < 0 {
		gap = -gap
	}
	// Sequential delivery would separate completions by ~300 ms at
	// 10.5 Mbps; interleaved delivery keeps them within a few frames.
	if gap > 100*time.Millisecond {
		t.Fatalf("equal-priority fetches not interleaved: gap %v", gap)
	}
}

func TestProgressMonotonic(t *testing.T) {
	sim := simnet.New(9)
	net := transport.NewNetwork(sim, simnet.DA2GC)
	c := httpsim.NewClient(sim, net, core.MustProtocol("QUIC", simnet.DA2GC))
	var prev int64 = -1
	ok := true
	c.Fetch(0, 150_000, 0, func(n int64) {
		if n < prev {
			ok = false
		}
		prev = n
	}, nil)
	sim.RunUntil(3 * time.Minute)
	if !ok {
		t.Fatal("progress went backwards")
	}
	if prev != 150_000 {
		t.Fatalf("final progress = %d", prev)
	}
}

func TestLossyNetworkAllStacksComplete(t *testing.T) {
	for _, stack := range stacks(simnet.MSS) {
		sim := simnet.New(11)
		net := transport.NewNetwork(sim, simnet.MSS)
		c := httpsim.NewClient(sim, net, stack)
		done := 0
		for i := 0; i < 3; i++ {
			c.Fetch(i%2, 80_000, i, nil, func() { done++ })
		}
		sim.RunUntil(5 * time.Minute)
		if done != 3 {
			t.Fatalf("%s on MSS: done = %d/3 (retx=%d rtos=%d)",
				stack.Name, done, c.Retransmissions(), c.RTOs())
		}
	}
}

func TestFetchPanicsOnBadSize(t *testing.T) {
	sim := simnet.New(1)
	net := transport.NewNetwork(sim, simnet.DSL)
	c := httpsim.NewClient(sim, net, core.MustProtocol("TCP", simnet.DSL))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.Fetch(0, 0, 0, nil, nil)
}
