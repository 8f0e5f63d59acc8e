// Package core is the public orchestration API of the reproduction: the
// Table 1 protocol catalog, a Testbed that records page-load videos across
// the site × network × protocol grid (with caching and parallel execution),
// and the StudyPipeline that turns recordings into simulated user-study
// outcomes (votes, ratings, funnels) ready for the per-figure analyses.
package core

import (
	"fmt"

	"repro/internal/httpsim"
	"repro/internal/quicsim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
)

// ProtocolNames lists the Table 1 rows in paper order.
func ProtocolNames() []string {
	return []string{"TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR"}
}

// Protocol returns the named Table 1 stack parameterized for the given
// network (the tuned TCP buffers depend on the BDP, like the paper's
// testbed reconfiguration step).
func Protocol(name string, net simnet.NetworkConfig) (httpsim.Protocol, error) {
	bdp := net.BDPBytes()
	switch name {
	case "TCP":
		return httpsim.TCPStack{Opts: tcpsim.Stock()}, nil
	case "TCP+":
		return httpsim.TCPStack{Opts: tcpsim.Tuned(bdp)}, nil
	case "TCP+BBR":
		return httpsim.TCPStack{Opts: tcpsim.TunedBBR(bdp)}, nil
	case "QUIC":
		return httpsim.QUICStack{Opts: quicsim.Stock()}, nil
	case "QUIC+BBR":
		return httpsim.QUICStack{Opts: quicsim.StockBBR()}, nil
	case "QUIC-0RTT":
		o := quicsim.Stock()
		o.Name = "QUIC-0RTT"
		o.ZeroRTT = true
		return httpsim.QUICStack{Opts: o}, nil
	case "QUIC-nopacing":
		o := quicsim.Stock()
		o.Name = "QUIC-nopacing"
		o.Pacing = false
		return httpsim.QUICStack{Opts: o}, nil
	}
	return nil, fmt.Errorf("core: unknown protocol %q", name)
}

// MustProtocol panics on unknown names; for use with the fixed catalog.
func MustProtocol(name string, net simnet.NetworkConfig) httpsim.Protocol {
	p, err := Protocol(name, net)
	if err != nil {
		panic(err)
	}
	return p
}

// Table1Row describes one protocol configuration for the Table 1 printer.
type Table1Row struct {
	Protocol    string
	Description string
}

// Table1 returns the protocol-configuration table verbatim.
func Table1() []Table1Row {
	return []Table1Row{
		{"TCP", "Stock TCP (Linux): IW10, Cubic"},
		{"TCP+", "IW32, Pacing, Cubic, tuned buffers, no slow start after idle"},
		{"TCP+BBR", "TCP+, but with BBRv1 as congestion control"},
		{"QUIC", "Stock Google QUIC: IW 32, Pacing, Cubic"},
		{"QUIC+BBR", "QUIC, but with BBRv1 as congestion control"},
	}
}
