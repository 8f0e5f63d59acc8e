package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/webpage"
)

// presetNames lists every name Protocol accepts, in table order.
func presetNames() []string {
	var names []string
	for _, p := range presets {
		names = append(names, p.stack.Name)
	}
	return names
}

func TestPresetRows(t *testing.T) {
	want := []struct {
		name        string
		cc          string
		iw          int
		pacing      bool
		idleRestart bool
		byteStream  bool
		tunedBuf    bool
	}{
		{"TCP", "cubic", 10, false, true, true, false},
		{"TCP+", "cubic", 32, true, false, true, true},
		{"TCP+BBR", "bbr", 32, true, false, true, true},
		{"QUIC", "cubic", 32, true, false, false, false},
		{"QUIC+BBR", "bbr", 32, true, false, false, false},
		{"QUIC-0RTT", "cubic", 32, true, false, false, false},
		{"QUIC-nopacing", "cubic", 32, false, false, false, false},
	}
	if len(presets) != len(want) {
		t.Fatalf("%d presets, want %d", len(presets), len(want))
	}
	for i, w := range want {
		t.Run(w.name, func(t *testing.T) {
			p := presets[i]
			s := p.stack
			if s.Name != w.name || s.CC != w.cc || s.IWSegments != w.iw || s.Pacing != w.pacing ||
				s.SlowStartAfterIdle != w.idleRestart || s.Sem.ByteStream != w.byteStream || p.tunedBuf != w.tunedBuf {
				t.Errorf("preset %d = %+v (tunedBuf %v), want %+v", i, s, p.tunedBuf, w)
			}
		})
	}
}

func TestTunedBufferFloor(t *testing.T) {
	tiny := simnet.NetworkConfig{Name: "tiny", UplinkBps: 8000, DownlinkBps: 8000, MinRTT: 10 * time.Millisecond}
	for _, name := range []string{"TCP+", "TCP+BBR"} {
		if got := MustProtocol(name, tiny).RecvBuf; got != stockRecvBuf {
			t.Errorf("%s on a tiny BDP: RecvBuf %d, want the stock floor %d", name, got, stockRecvBuf)
		}
		for _, net := range simnet.Networks() {
			want := max(int64(4*net.BDPBytes()), stockRecvBuf)
			if got := MustProtocol(name, net).RecvBuf; got != want {
				t.Errorf("%s on %s: RecvBuf %d, want max(4×BDP, stock) = %d", name, net.Name, got, want)
			}
		}
	}
	// LTE's BDP is large enough that 4×BDP clears the floor.
	if got := MustProtocol("TCP+", simnet.LTE).RecvBuf; got <= stockRecvBuf {
		t.Fatalf("TCP+ on LTE: RecvBuf %d should scale past the stock %d", got, stockRecvBuf)
	}
	// Only the tuned stacks follow the network.
	for _, name := range []string{"TCP", "QUIC", "QUIC+BBR"} {
		if MustProtocol(name, simnet.DSL).RecvBuf != MustProtocol(name, simnet.MSS).RecvBuf {
			t.Errorf("%s: receive buffer depends on the network", name)
		}
	}
}

func TestSemanticsShape(t *testing.T) {
	for _, p := range presets {
		s := p.stack
		t.Run(s.Name, func(t *testing.T) {
			flights := 2
			switch {
			case s.Sem.ByteStream:
				flights = 5
				if s.Sem.MaxSackBlocks != 3 {
					t.Errorf("SACK blocks = %d, want 3", s.Sem.MaxSackBlocks)
				}
			case s.Name == "QUIC-0RTT":
				flights = 1
			}
			if !s.Sem.ByteStream && s.Sem.MaxAckRanges < 32 {
				t.Errorf("QUIC ack ranges too limited: %d", s.Sem.MaxAckRanges)
			}
			if len(s.Sem.Handshake) != flights {
				t.Errorf("%d handshake flights, want %d", len(s.Sem.Handshake), flights)
			}
			// Alternating client/server, the client first.
			for i, st := range s.Sem.Handshake {
				if st.FromClient != (i%2 == 0) {
					t.Errorf("handshake step %d has the wrong direction", i)
				}
			}
		})
	}
}

// requestAt runs one request/response exchange of stack over netCfg and
// returns when the client had the full response.
func requestAt(t *testing.T, stack transport.Stack, netCfg simnet.NetworkConfig, respBytes int64) time.Duration {
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
		t.Fatalf("%s on %s: %d-byte request/response did not complete", stack.Name, netCfg.Name, respBytes)
	}
	return done
}

// TestFirstByteRoundTrips: the request leaves once the client has the
// handshake's last server flight, so a small response completes one RTT
// later — 3 RTT for 2-RTT TCP/TLS, 2 RTT for 1-RTT QUIC, 1 RTT for 0-RTT.
func TestFirstByteRoundTrips(t *testing.T) {
	rtt := simnet.DSL.MinRTT
	for _, name := range presetNames() {
		t.Run(name, func(t *testing.T) {
			s := MustProtocol(name, simnet.DSL)
			want := time.Duration(len(s.Sem.Handshake)/2+1) * rtt
			if done := requestAt(t, s, simnet.DSL, 1000); done < want || done > want+30*time.Millisecond {
				t.Errorf("response at %v, want ~%v", done, want)
			}
		})
	}
}

func TestZeroRTTSavesARoundTrip(t *testing.T) {
	one := requestAt(t, MustProtocol("QUIC", simnet.DSL), simnet.DSL, 1000)
	zero := requestAt(t, MustProtocol("QUIC-0RTT", simnet.DSL), simnet.DSL, 1000)
	saved := one - zero
	rtt := simnet.DSL.MinRTT
	if saved < rtt*3/4 || saved > rtt*5/4 {
		t.Fatalf("0-RTT should save ~1 RTT, saved %v (1rtt=%v 0rtt=%v)", saved, one, zero)
	}
}

func TestQUICBeatsTCPHandshakeByOneRTT(t *testing.T) {
	// The paper's core mechanism: 1-RTT QUIC vs 2-RTT TCP/TLS. Against the
	// equally parameterized TCP+, a tiny response completes one RTT sooner.
	quic := requestAt(t, MustProtocol("QUIC", simnet.LTE), simnet.LTE, 1000)
	tcp := requestAt(t, MustProtocol("TCP+", simnet.LTE), simnet.LTE, 1000)
	rtt := simnet.LTE.MinRTT
	if quic < 2*rtt || quic > 2*rtt+40*time.Millisecond {
		t.Fatalf("QUIC completion %v, want ~%v", quic, 2*rtt)
	}
	if gap := tcp - quic; gap < rtt*3/4 || gap > rtt*5/4 {
		t.Fatalf("QUIC leads TCP+ by %v, want ~1 RTT (%v)", gap, rtt)
	}
}

func TestTunedFasterThanStockOnLargeResponse(t *testing.T) {
	// IW32 should beat IW10 for a response of several windows on LTE.
	stock := requestAt(t, MustProtocol("TCP", simnet.LTE), simnet.LTE, 120_000)
	tuned := requestAt(t, MustProtocol("TCP+", simnet.LTE), simnet.LTE, 120_000)
	if tuned >= stock {
		t.Fatalf("TCP+ (%v) should beat stock TCP (%v) on LTE", tuned, stock)
	}
}

func TestEveryPresetCompletesOnEveryNetwork(t *testing.T) {
	for _, name := range presetNames() {
		t.Run(name, func(t *testing.T) {
			for _, net := range simnet.Networks() {
				for _, size := range []int64{50_000, 200_000} {
					requestAt(t, MustProtocol(name, net), net, size)
				}
			}
		})
	}
}

func TestMultiStreamIndependence(t *testing.T) {
	// Three parallel streams over one connection all complete, on every
	// stack, over the lossy DA2GC link.
	for _, name := range presetNames() {
		t.Run(name, func(t *testing.T) {
			sim := simnet.New(17)
			net := transport.NewNetwork(sim, simnet.DA2GC)
			client, server := MustProtocol(name, simnet.DA2GC).NewConnPair(net)
			fins := map[int]bool{}
			server.OnStreamData = func(id int, total int64, fin bool) {
				if fin {
					server.WriteStream(id, 30_000, true)
				}
			}
			client.OnStreamData = func(id int, total int64, fin bool) {
				if fin {
					fins[id] = true
				}
			}
			client.OnEstablished = func() {
				for id := 1; id <= 3; id++ {
					client.WriteStream(id, 300, true)
				}
			}
			client.Start()
			server.Start()
			sim.RunUntil(5 * time.Minute)
			if len(fins) != 3 {
				t.Errorf("finished streams %v, want 1-3", fins)
			}
		})
	}
}

// TestTable1MatchesPresets ties each Table 1 description to its preset's
// fields, so the printed table cannot drift from the stacks it describes.
func TestTable1MatchesPresets(t *testing.T) {
	byName := map[string]preset{}
	for _, p := range presets {
		byName[p.stack.Name] = p
	}
	iwToken := regexp.MustCompile(`IW ?(\d+)`)
	butBBR := regexp.MustCompile(`^(\S+), but with BBRv1 as congestion control$`)
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	for _, row := range rows {
		p := byName[row.Protocol]
		s, d := p.stack, row.Description
		if m := butBBR.FindStringSubmatch(d); m != nil {
			base, ok := byName[m[1]]
			if !ok {
				t.Errorf("%s: description names unknown preset %q", s.Name, m[1])
				continue
			}
			want := base
			want.stack.Name, want.stack.CC, want.table1 = s.Name, "bbr", d
			if !reflect.DeepEqual(p, want) {
				t.Errorf("%s should equal %s in every field but Name and CC:\n got %+v\nwant %+v", s.Name, m[1], p, want)
			}
			continue
		}
		m := iwToken.FindStringSubmatch(d)
		if m == nil {
			t.Errorf("%s: no IW token in %q", s.Name, d)
		} else if iw, _ := strconv.Atoi(m[1]); iw != s.IWSegments {
			t.Errorf("%s: Table 1 says IW %d, preset has %d", s.Name, iw, s.IWSegments)
		}
		check := func(token string, has bool) {
			if strings.Contains(d, token) != has {
				t.Errorf("%s: %q in %q is %v, preset says %v", s.Name, token, d, !has, has)
			}
		}
		check("Pacing", s.Pacing)
		check("Cubic", s.CC == "cubic")
		check("BBRv1", s.CC == "bbr")
		check("tuned buffers", p.tunedBuf)
		// Table 1 names idle restart only where it departs from Linux TCP's
		// default; gQUIC never restarts after idle and the QUIC row is silent
		// about it.
		if s.Sem.ByteStream {
			check("no slow start after idle", !s.SlowStartAfterIdle)
		}
	}
}

// TestPageloadHelpListsEveryStack keeps cmd/pageload's -proto help equal to
// the names Protocol accepts.
func TestPageloadHelpListsEveryStack(t *testing.T) {
	src, err := os.ReadFile("../../cmd/pageload/main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`flag\.String\("proto", "\w+", "protocol: ([^"]*)"\)`).FindSubmatch(src)
	if m == nil {
		t.Fatal("cmd/pageload has no -proto flag with a protocol list")
	}
	if got, want := strings.Split(string(m[1]), ", "), presetNames(); !slices.Equal(got, want) {
		t.Fatalf("-proto help lists %v, Protocol accepts %v", got, want)
	}
}

// stackFields names the fields in which two stacks differ, Sem's fields
// one by one.
func stackFields(a, b transport.Stack) []string {
	var diff []string
	compare := func(prefix string, x, y reflect.Value) {
		for i := 0; i < x.NumField(); i++ {
			name := prefix + x.Type().Field(i).Name
			if name != "Sem" && !reflect.DeepEqual(x.Field(i).Interface(), y.Field(i).Interface()) {
				diff = append(diff, name)
			}
		}
	}
	compare("", reflect.ValueOf(a), reflect.ValueOf(b))
	compare("Sem.", reflect.ValueOf(a.Sem), reflect.ValueOf(b.Sem))
	return diff
}

// TestQUICBBRDifferenceLadder runs QUIC+BBR with each of its differences
// from TCP+BBR set, one at a time, to TCP+BBR's value, over the page and
// networks where QUIC+BBR loads stall. It pins the stacks the ladder runs
// and that TCP's handshake script alone clears the stall, and logs each
// rung's failed loads and RTOs.
func TestQUICBBRDifferenceLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("560 page loads")
	}
	const seeds = 40
	site := webpage.ByName("nytimes.com")
	nets := []simnet.NetworkConfig{simnet.DA2GC, simnet.MSS}
	rungs := []struct {
		name   string
		fields []string
		set    func(s *transport.Stack, tcp transport.Stack)
	}{
		{"QUIC+BBR", nil, func(s *transport.Stack, tcp transport.Stack) {}},
		{"RecvBuf", []string{"RecvBuf"}, func(s *transport.Stack, tcp transport.Stack) { s.RecvBuf = tcp.RecvBuf }},
		{"ByteStream", []string{"Sem.ByteStream", "Sem.MaxSackBlocks"}, func(s *transport.Stack, tcp transport.Stack) {
			s.Sem.ByteStream, s.Sem.MaxSackBlocks = tcp.Sem.ByteStream, tcp.Sem.MaxSackBlocks
		}},
		{"MaxAckRanges", []string{"Sem.MaxAckRanges"}, func(s *transport.Stack, tcp transport.Stack) { s.Sem.MaxAckRanges = tcp.Sem.MaxSackBlocks }},
		{"AckDelay", []string{"Sem.AckDelay"}, func(s *transport.Stack, tcp transport.Stack) { s.Sem.AckDelay = tcp.Sem.AckDelay }},
		{"PacketOverhead", []string{"Sem.PacketOverhead"}, func(s *transport.Stack, tcp transport.Stack) { s.Sem.PacketOverhead = tcp.Sem.PacketOverhead }},
		{"Handshake", []string{"Sem.Handshake"}, func(s *transport.Stack, tcp transport.Stack) { s.Sem.Handshake = tcp.Sem.Handshake }},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-15s %12s %10s %12s %10s\n", "rung", "DA2GC failed", "RTOs/load", "MSS failed", "RTOs/load")
	for _, r := range rungs {
		fmt.Fprintf(&table, "%-15s", r.name)
		for _, net := range nets {
			base := MustProtocol("QUIC+BBR", net)
			s := base
			r.set(&s, MustProtocol("TCP+BBR", net))
			if got := stackFields(base, s); !slices.Equal(got, r.fields) {
				t.Fatalf("rung %s differs from QUIC+BBR in %v, want %v", r.name, got, r.fields)
			}
			failed, rtos := 0, uint64(0)
			for seed := int64(1); seed <= seeds; seed++ {
				res := browser.Load(site, browser.Config{Network: net, Proto: s, Seed: seed})
				if !res.Trace.Completed {
					failed++
				}
				rtos += res.RTOs
			}
			if r.name == "Handshake" && failed != 0 {
				t.Errorf("QUIC+BBR with TCP's handshake failed %d/%d loads on %s, want 0", failed, seeds, net.Name)
			}
			if !reflect.DeepEqual(base, MustProtocol("QUIC+BBR", net)) {
				t.Fatalf("rung %s changed the QUIC+BBR preset", r.name)
			}
			fmt.Fprintf(&table, " %9d/%d %10d", failed, seeds, rtos/seeds)
		}
		table.WriteByte('\n')
	}
	t.Logf("nytimes.com, browser.Load seeds 1-%d:\n%s", seeds, table.String())
}
