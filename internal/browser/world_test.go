package browser_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/webpage"
)

// TestReusedWorldMatchesFreshWorld runs a sequence of loads on one world and
// checks each against the same load on a new world: the same Result, trace
// points, report, retransmission, RTO and connection counts included. The sequence mixes
// stacks and networks, and one load is cut off at MaxLoadTime with events,
// frames and timers still queued, so the load after it starts on a world
// the last one left busy.
func TestReusedWorldMatchesFreshWorld(t *testing.T) {
	type step struct {
		site string
		cfg  browser.Config
	}
	steps := []step{
		{"etsy.com", browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("QUIC+BBR", simnet.DA2GC), Seed: 3}},
		{"wikipedia.org", browser.Config{Network: simnet.DSL, Proto: core.MustProtocol("TCP", simnet.DSL), Seed: 4}},
		{"cnn.com", browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("TCP", simnet.DA2GC), Seed: 5, MaxLoadTime: 2 * time.Second}},
		{"demorgen.be", browser.Config{Network: simnet.MSS, Proto: core.MustProtocol("TCP+", simnet.MSS), Seed: 6}},
		{"etsy.com", browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("QUIC+BBR", simnet.DA2GC), Seed: 3}},
		{"gov.uk", browser.Config{Network: simnet.LTE, Proto: core.MustProtocol("QUIC", simnet.LTE), Seed: 7}},
	}
	w := browser.NewWorld()
	for i, st := range steps {
		site := webpage.ByName(st.site)
		got := w.Load(site, st.cfg)
		want := browser.NewWorld().Load(site, st.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("load %d (%s on %s via %s): reused world gave %+v\nnew world gave %+v",
				i, st.site, st.cfg.Network.Name, st.cfg.Proto.Name, got, want)
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
	cfg := browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("QUIC+BBR", simnet.DA2GC), Seed: 3}
	w := browser.NewWorld()
	w.Load(site, cfg)
	warm := testing.AllocsPerRun(3, func() { w.Load(site, cfg) })
	cold := testing.AllocsPerRun(3, func() { browser.NewWorld().Load(site, cfg) })
	t.Logf("allocs per load: %.0f on a warm world, %.0f on a new one", warm, cold)
	if warm > ceiling {
		t.Fatalf("a repeat load on a warm world allocates %.0f times, want <= %d", warm, ceiling)
	}
}
