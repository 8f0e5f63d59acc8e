package browser

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/quicsim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/webpage"
)

func quicBBR() httpsim.Protocol { return httpsim.QUICStack{Opts: quicsim.StockBBR()} }

// TestReusedWorldMatchesFreshWorld runs a sequence of loads on one world and
// checks each against the same load on a new world: the same Result, trace
// points, report, retransmission, RTO and connection counts included. The sequence mixes
// stacks and networks, and one load is cut off at MaxLoadTime with events,
// frames and timers still queued, so the load after it starts on a world
// the last one left busy.
func TestReusedWorldMatchesFreshWorld(t *testing.T) {
	type step struct {
		site string
		cfg  Config
	}
	steps := []step{
		{"etsy.com", Config{Network: simnet.DA2GC, Proto: quicBBR(), Seed: 3}},
		{"wikipedia.org", Config{Network: simnet.DSL, Proto: tcpStock(), Seed: 4}},
		{"cnn.com", Config{Network: simnet.DA2GC, Proto: tcpStock(), Seed: 5, MaxLoadTime: 2 * time.Second}},
		{"demorgen.be", Config{Network: simnet.MSS, Proto: httpsim.TCPStack{Opts: tcpsim.Tuned(simnet.MSS.BDPBytes())}, Seed: 6}},
		{"etsy.com", Config{Network: simnet.DA2GC, Proto: quicBBR(), Seed: 3}},
		{"gov.uk", Config{Network: simnet.LTE, Proto: quicStock(), Seed: 7}},
	}
	w := newWorld()
	for i, st := range steps {
		site := webpage.ByName(st.site)
		got := w.load(site, st.cfg)
		want := newWorld().load(site, st.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("load %d (%s on %s via %s): reused world gave %+v\nnew world gave %+v",
				i, st.site, st.cfg.Network.Name, st.cfg.Proto.Name(), got, want)
		}
		if i == 2 && got.Trace.Completed {
			t.Fatal("the cut-off load completed, so it left nothing queued")
		}
	}
}

// TestWarmWorldLoadAllocs pins the allocations of a repeat lossy page load
// on a warm world — a DA2GC QUIC+BBR load of etsy.com — far below those of a
// load on a new world, which has to grow every pool again (about 3,300; the
// warm load measured about 1,200). What is left is the page's own state
// (objects, fetches, trace points), the HTTP layer's per-connection
// closures, the congestion controllers, and the buffers of heavy conns,
// which grow past what a reused conn keeps.
func TestWarmWorldLoadAllocs(t *testing.T) {
	const ceiling = 1500
	site := webpage.ByName("etsy.com")
	cfg := Config{Network: simnet.DA2GC, Proto: quicBBR(), Seed: 3}
	w := newWorld()
	w.load(site, cfg)
	warm := testing.AllocsPerRun(3, func() { w.load(site, cfg) })
	cold := testing.AllocsPerRun(3, func() { newWorld().load(site, cfg) })
	t.Logf("allocs per load: %.0f on a warm world, %.0f on a new one", warm, cold)
	if warm > ceiling {
		t.Fatalf("a repeat load on a warm world allocates %.0f times, want <= %d", warm, ceiling)
	}
}
