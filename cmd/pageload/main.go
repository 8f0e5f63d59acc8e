// Command pageload loads a single site from the corpus under one network
// and protocol configuration and prints the visual metrics and transport
// counters — the smallest way to poke at the testbed, through the public
// qoe SDK.
//
// Usage:
//
//	pageload [-site wikipedia.org] [-net DSL] [-proto QUIC] [-seed N] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/pkg/qoe"
)

func main() {
	siteName := flag.String("site", "wikipedia.org", "site from the 36-site corpus")
	netName := flag.String("net", "DSL", "network: DSL, LTE, DA2GC, MSS, or a scenario-library name")
	protoName := flag.String("proto", "QUIC", "protocol: TCP, TCP+, TCP+BBR, QUIC, QUIC+BBR, QUIC-0RTT, QUIC-nopacing")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Bool("trace", false, "print the visual-progress trace")
	list := flag.Bool("list", false, "list corpus sites and exit")
	flag.Parse()

	if *list {
		for _, s := range qoe.Sites() {
			fmt.Printf("%-20s %4d objects %8.1f KB %3d hosts\n",
				s.Name, s.Objects, float64(s.Bytes)/1024, s.Hosts)
		}
		return
	}

	res, err := qoe.LoadPage(qoe.PageLoad{
		Site:     *siteName,
		Network:  *netName,
		Protocol: *protoName,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pageload:", err)
		os.Exit(2)
	}

	fmt.Printf("%s over %s via %s (seed %d)\n", res.Site, res.Network, res.Protocol, *seed)
	fmt.Printf("  objects %d/%d  conns %d  retransmissions %d  rtos %d  complete %v\n",
		res.Objects, res.ObjectsTotal, res.Conns, res.Retransmissions, res.RTOs, res.Complete)
	fmt.Printf("  FVC  %10s\n", res.FVC.Round(time.Millisecond))
	fmt.Printf("  SI   %10s\n", res.SI.Round(time.Millisecond))
	fmt.Printf("  VC85 %10s\n", res.VC85.Round(time.Millisecond))
	fmt.Printf("  LVC  %10s\n", res.LVC.Round(time.Millisecond))
	fmt.Printf("  PLT  %10s\n", res.PLT.Round(time.Millisecond))
	if *trace {
		fmt.Println("  visual progress:")
		for _, p := range res.Trace {
			fmt.Printf("    %10s  %5.1f%%\n", p.T.Round(time.Millisecond), p.VC*100)
		}
	}
}
