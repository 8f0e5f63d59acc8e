package browser_test

import (
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/webpage"
)

// loadOne loads site over net with the named preset and requires it to
// complete with a valid trace.
func loadOne(t *testing.T, site *webpage.Site, net simnet.NetworkConfig, proto string, seed int64) browser.Result {
	t.Helper()
	res := browser.Load(site, browser.Config{Network: net, Proto: core.MustProtocol(proto, net), Seed: seed})
	if !res.Trace.Completed {
		t.Fatalf("%s on %s via %s did not complete", site.Name, net.Name, proto)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoadSmallSiteDSL(t *testing.T) {
	site := webpage.ByName("apache.org")
	res := loadOne(t, site, simnet.DSL, "TCP", 1)
	if res.Objects != len(site.Objects) {
		t.Fatalf("loaded %d/%d objects", res.Objects, len(site.Objects))
	}
	r := res.Report
	if !r.Complete {
		t.Fatalf("metrics incomplete: %+v", r)
	}
	if !(r.FVC <= r.VC85 && r.VC85 <= r.LVC && r.LVC <= r.PLT) {
		t.Fatalf("metric ordering violated: %+v", r)
	}
	if r.FVC < 3*simnet.DSL.MinRTT {
		// 2-RTT handshake + request/response must precede any paint.
		t.Fatalf("FVC %v impossibly early", r.FVC)
	}
}

func TestLoadAllLabSitesAllNetworks(t *testing.T) {
	for _, site := range webpage.LabCorpus() {
		for _, net := range simnet.Networks() {
			res := loadOne(t, site, net, "QUIC", 7)
			if res.Report.SI <= 0 {
				t.Fatalf("%s/%s: SI = %v", site.Name, net.Name, res.Report.SI)
			}
		}
	}
}

func TestVisualCompletenessReachesOne(t *testing.T) {
	site := webpage.ByName("wikipedia.org")
	res := loadOne(t, site, simnet.DSL, "QUIC", 3)
	pts := res.Trace.Points
	if len(pts) == 0 || pts[len(pts)-1].VC < 0.999 {
		t.Fatalf("final VC below 1: %v", pts)
	}
}

func TestDeterministicLoads(t *testing.T) {
	site := webpage.ByName("gov.uk")
	a := browser.Load(site, browser.Config{Network: simnet.LTE, Proto: core.MustProtocol("TCP", simnet.LTE), Seed: 42})
	b := browser.Load(site, browser.Config{Network: simnet.LTE, Proto: core.MustProtocol("TCP", simnet.LTE), Seed: 42})
	if a.Report != b.Report {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a.Report, b.Report)
	}
	c := browser.Load(site, browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("TCP", simnet.DA2GC), Seed: 43})
	d := browser.Load(site, browser.Config{Network: simnet.DA2GC, Proto: core.MustProtocol("TCP", simnet.DA2GC), Seed: 44})
	if c.Report == d.Report {
		t.Fatal("different seeds should differ on a lossy network")
	}
}

func TestQUICFasterFVCOnCleanNetwork(t *testing.T) {
	// The 1-RTT handshake advantage must surface in first visual change on
	// a loss-free network (the paper's primary technical mechanism).
	site := webpage.ByName("gov.uk")
	tcp := loadOne(t, site, simnet.LTE, "TCP", 5)
	quic := loadOne(t, site, simnet.LTE, "QUIC", 5)
	if quic.Report.FVC >= tcp.Report.FVC {
		t.Fatalf("QUIC FVC (%v) should beat TCP FVC (%v)", quic.Report.FVC, tcp.Report.FVC)
	}
	saved := tcp.Report.FVC - quic.Report.FVC
	rtt := simnet.LTE.MinRTT
	// The advantage compounds: the document connection saves one RTT and so
	// does each render-blocking third-party connection behind it.
	if saved < rtt/2 || saved > 5*rtt {
		t.Fatalf("FVC advantage %v should be a small multiple of the RTT (%v)", saved, rtt)
	}
}

func TestSlowNetworkSlowerThanFast(t *testing.T) {
	site := webpage.ByName("wikipedia.org")
	dsl := loadOne(t, site, simnet.DSL, "QUIC", 9)
	mss := loadOne(t, site, simnet.MSS, "QUIC", 9)
	if mss.Report.PLT <= 2*dsl.Report.PLT {
		t.Fatalf("MSS (%v) should be far slower than DSL (%v)", mss.Report.PLT, dsl.Report.PLT)
	}
}

func TestMultiHostSiteOpensManyConns(t *testing.T) {
	site := webpage.ByName("spotify.com")
	res := loadOne(t, site, simnet.DSL, "QUIC", 11)
	if res.Conns < site.HostCount()/2 {
		t.Fatalf("conns = %d for %d hosts", res.Conns, site.HostCount())
	}
}

func TestLossyNetworkCausesRetransmissions(t *testing.T) {
	site := webpage.ByName("etsy.com")
	res := loadOne(t, site, simnet.MSS, "TCP", 13)
	if res.Retransmissions == 0 {
		t.Fatal("6% loss must cause retransmissions")
	}
}

func TestBannerSiteLateLVC(t *testing.T) {
	// demorgen.be's welcome banner repaints late: LVC should sit well after
	// VC85 (the Figure 1 situation that confused crowd voters).
	site := webpage.ByName("demorgen.be")
	res := loadOne(t, site, simnet.DSL, "QUIC", 15)
	r := res.Report
	if r.LVC < r.VC85+r.VC85/4 {
		t.Fatalf("banner should push LVC (%v) well past VC85 (%v)", r.LVC, r.VC85)
	}
}

func TestMaxLoadTimeAborts(t *testing.T) {
	site := webpage.ByName("cnn.com") // ~6 MB
	res := browser.Load(site, browser.Config{
		Network:     simnet.DA2GC, // 0.468 Mbps: needs ~2 min
		Proto:       core.MustProtocol("TCP", simnet.DA2GC),
		Seed:        1,
		MaxLoadTime: 2 * time.Second,
	})
	if res.Trace.Completed {
		t.Fatal("6 MB over 0.468 Mbps cannot finish in 2 s")
	}
	if res.Report.Complete {
		t.Fatal("aborted load must not produce a complete report")
	}
}
