package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/webpage"
)

// AblationRow compares one configuration dimension on one network: mean
// Speed Index over sites and repetitions for the two settings.
type AblationRow struct {
	Network string
	LabelA  string
	LabelB  string
	MeanSIA time.Duration
	MeanSIB time.Duration
	WinnerA bool
	Speedup float64 // SI_B / SI_A (>1 means A faster)
}

// meanSI loads each site reps times and returns the mean SI.
func meanSI(sites []*webpage.Site, net simnet.NetworkConfig, stack transport.Stack, reps int, seed int64) time.Duration {
	var sis []float64
	for _, site := range sites {
		for i := 0; i < reps; i++ {
			res := browser.Load(site, browser.Config{
				Network: net, Proto: stack, Seed: seed + int64(i)*7919,
			})
			if res.Report.Complete {
				sis = append(sis, res.Report.SI.Seconds())
			}
		}
	}
	if len(sis) == 0 {
		return 0
	}
	return time.Duration(stats.Mean(sis) * float64(time.Second))
}

func ablate(opts Options, nets []simnet.NetworkConfig, labelA, labelB string,
	mk func(net simnet.NetworkConfig) (transport.Stack, transport.Stack)) []AblationRow {
	var rows []AblationRow
	for _, net := range nets {
		a, b := mk(net)
		siA := meanSI(opts.Scale.Sites, net, a, opts.Scale.Reps, opts.Seed)
		siB := meanSI(opts.Scale.Sites, net, b, opts.Scale.Reps, opts.Seed)
		row := AblationRow{
			Network: net.Name, LabelA: labelA, LabelB: labelB,
			MeanSIA: siA, MeanSIB: siB,
			WinnerA: siA < siB,
		}
		if siA > 0 {
			row.Speedup = float64(siB) / float64(siA)
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationIW isolates the initial congestion window: IW32 vs IW10 on an
// otherwise stock TCP stack (A1 in DESIGN.md). Expected: IW32 wins on
// DSL/LTE, and hurts on the thin-queue DA2GC link (the paper's inversion).
func AblationIW(opts Options) []AblationRow {
	return ablate(opts, simnet.Networks(), "TCP IW32", "TCP IW10",
		func(net simnet.NetworkConfig) (transport.Stack, transport.Stack) {
			iw32 := core.MustProtocol("TCP", net)
			iw32.Name, iw32.IWSegments = "TCP-IW32", 32
			return iw32, core.MustProtocol("TCP", net)
		})
}

// AblationPacing isolates packet pacing on the tuned TCP stack (A2).
func AblationPacing(opts Options) []AblationRow {
	return ablate(opts, simnet.Networks(), "TCP+ paced", "TCP+ unpaced",
		func(net simnet.NetworkConfig) (transport.Stack, transport.Stack) {
			unpaced := core.MustProtocol("TCP+", net)
			unpaced.Name, unpaced.Pacing = "TCP+nopacing", false
			return core.MustProtocol("TCP+", net), unpaced
		})
}

// AblationHOL isolates stream independence: QUIC vs an equally parameterized
// TCP+ (A3). On lossy networks QUIC's per-stream delivery should win even
// though window, pacing and CC match.
func AblationHOL(opts Options) []AblationRow {
	return ablate(opts, simnet.Networks(), "QUIC (per-stream)", "TCP+ (byte stream)",
		func(net simnet.NetworkConfig) (transport.Stack, transport.Stack) {
			return core.MustProtocol("QUIC", net), core.MustProtocol("TCP+", net)
		})
}

// Ext0RTT measures the repeat-visit extension (E1): 0-RTT QUIC vs 1-RTT
// QUIC.
func Ext0RTT(opts Options) []AblationRow {
	return ablate(opts, simnet.Networks(), "QUIC 0-RTT", "QUIC 1-RTT",
		func(net simnet.NetworkConfig) (transport.Stack, transport.Stack) {
			return core.MustProtocol("QUIC-0RTT", net), core.MustProtocol("QUIC", net)
		})
}

// AblationResult carries one ablation or extension comparison.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the comparison table.
func (r AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", r.Title)
	fmt.Fprintf(w, "%-7s %-20s %-20s %10s %10s %8s\n", "Network", "A", "B", "SI(A)", "SI(B)", "B/A")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-7s %-20s %-20s %10s %10s %8.2f\n",
			row.Network, row.LabelA, row.LabelB,
			row.MeanSIA.Round(time.Millisecond), row.MeanSIB.Round(time.Millisecond), row.Speedup)
	}
}

// CSV writes one row per network comparison.
func (r AblationResult) CSV(w io.Writer) error {
	return writeCSV(w, []string{"network", "label_a", "label_b",
		"mean_si_a_s", "mean_si_b_s", "speedup_b_over_a", "winner_a"}, r.Rows,
		func(row AblationRow) []string {
			return []string{
				row.Network, row.LabelA, row.LabelB,
				fmtFloat(row.MeanSIA.Seconds()),
				fmtFloat(row.MeanSIB.Seconds()),
				fmtFloat(row.Speedup),
				strconv.FormatBool(row.WinnerA),
			}
		})
}

// JSON writes the full result as indented JSON.
func (r AblationResult) JSON(w io.Writer) error { return writeJSON(w, r) }

// ablationExp registers one ablation/extension comparison. Ablations drive
// browser.Load directly (they compare protocol variants outside the Table 1
// catalog), so they declare no testbed conditions and ignore the shared
// testbed.
type ablationExp struct {
	name  string
	title string
	run   func(Options) []AblationRow
}

func (a ablationExp) Name() string                                   { return a.name }
func (a ablationExp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }
func (a ablationExp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return AblationResult{Title: a.title, Rows: a.run(opts)}, nil
}

func init() {
	Register(ablationExp{"ablate-iw",
		"Ablation A1: initial window IW32 vs IW10 (stock TCP base)", AblationIW})
	Register(ablationExp{"ablate-pacing",
		"Ablation A2: pacing on vs off (TCP+ base)", AblationPacing})
	Register(ablationExp{"ablate-hol",
		"Ablation A3: per-stream (QUIC) vs byte-stream (TCP+) delivery", AblationHOL})
	Register(ablationExp{"ext-0rtt",
		"Extension E1: QUIC 0-RTT repeat visit vs 1-RTT", Ext0RTT})
}
