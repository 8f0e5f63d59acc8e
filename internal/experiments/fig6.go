package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
)

// Fig6Cell is one heatmap entry: Pearson's r between a technical metric and
// the users' mean per-site ratings, for one protocol on one network.
type Fig6Cell struct {
	Protocol string
	Network  string
	Metric   string
	R        float64
	Sites    int
}

// Fig6Result carries the correlation heatmap.
type Fig6Result struct {
	Cells []Fig6Cell
}

// fig6Exp is the registered "fig6" experiment.
type fig6Exp struct{}

func (fig6Exp) Name() string { return "fig6" }

func (fig6Exp) Conditions() ([]simnet.NetworkConfig, []string) {
	return simnet.Networks(), study.RatingProtocols()
}

func (fig6Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return fig6Run(tb, opts)
}

func init() { Register(fig6Exp{}) }

// fig6Run computes the paper's metric-vs-rating correlation: for every
// protocol and network, the per-site mean rating is correlated (Pearson)
// against the typical video's technical metrics. For DSL/LTE the free-time
// votes are used, for the in-flight networks the plane votes — exactly the
// paper's choice.
func fig6Run(tb *core.Testbed, opts Options) (Fig6Result, error) {
	conditions, err := tb.RatingConditions()
	if err != nil {
		return Fig6Result{}, err
	}
	outcome := core.RunRatingStudy(study.Microworker, conditions, opts.Seed)

	// envFor selects which environment's votes represent a network.
	envFor := func(net string) study.Environment {
		if net == "DA2GC" || net == "MSS" {
			return study.OnPlane
		}
		return study.FreeTime
	}

	// Mean vote per (protocol, network, site).
	type skey struct {
		prot string
		net  string
		site string
	}
	votes := map[skey][]float64{}
	for i, c := range outcome.Conditions {
		if c.Environment != envFor(c.Network) {
			continue
		}
		k := skey{c.Protocol, c.Network, c.Site}
		votes[k] = append(votes[k], outcome.Speed[i]...)
	}

	var res Fig6Result
	for _, prot := range study.RatingProtocols() {
		for _, net := range simnet.Networks() {
			for _, metric := range metrics.Names() {
				var xs, ys []float64 // metric value, mean vote
				for _, site := range tb.Scale.Sites {
					vs := votes[skey{prot, net.Name, site.Name}]
					if len(vs) == 0 {
						continue
					}
					rec, err := tb.Typical(site, net, prot)
					if err != nil {
						continue
					}
					mv, err := rec.Report.Metric(metric)
					if err != nil {
						return Fig6Result{}, err
					}
					xs = append(xs, mv.Seconds())
					ys = append(ys, stats.Mean(vs))
				}
				if len(xs) < 3 {
					continue
				}
				r, err := stats.Pearson(xs, ys)
				if err != nil {
					continue // zero-variance metric on tiny scales
				}
				res.Cells = append(res.Cells, Fig6Cell{
					Protocol: prot, Network: net.Name, Metric: metric,
					R: r, Sites: len(xs),
				})
			}
		}
	}
	return res, nil
}

// Cell returns the heatmap entry for (protocol, network, metric).
func (r Fig6Result) Cell(prot, net, metric string) (Fig6Cell, bool) {
	for _, c := range r.Cells {
		if c.Protocol == prot && c.Network == net && c.Metric == metric {
			return c, true
		}
	}
	return Fig6Cell{}, false
}

// MeanRByMetric averages r over all protocols and networks per metric —
// the "SI correlates best, PLT worst" headline.
func (r Fig6Result) MeanRByMetric() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, c := range r.Cells {
		sums[c.Metric] += c.R
		counts[c.Metric]++
	}
	out := map[string]float64{}
	for m, s := range sums {
		out[m] = s / float64(counts[m])
	}
	return out
}

// Render prints the heatmap, one block per protocol as in the paper.
func (r Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: Pearson correlation of technical metrics vs. user ratings\n")
	fmt.Fprintf(w, "(more negative is better; DSL/LTE use free-time votes, DA2GC/MSS plane votes)\n")
	nets := []string{"DSL", "LTE", "DA2GC", "MSS"}
	for _, prot := range study.RatingProtocols() {
		fmt.Fprintf(w, "\n%s\n%-6s", prot, "")
		for _, n := range nets {
			fmt.Fprintf(w, " %7s", n)
		}
		fmt.Fprintln(w)
		for _, metric := range metrics.Names() {
			fmt.Fprintf(w, "%-6s", metric)
			for _, n := range nets {
				if c, ok := r.Cell(prot, n, metric); ok {
					fmt.Fprintf(w, " %7.2f", c.R)
				} else {
					fmt.Fprintf(w, " %7s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nMean r per metric: ")
	for _, m := range metrics.Names() {
		fmt.Fprintf(w, "%s=%.2f ", m, r.MeanRByMetric()[m])
	}
	fmt.Fprintln(w)
}

// CSV writes the correlation heatmap, one row per cell.
func (r Fig6Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"protocol", "network", "metric", "pearson_r", "sites"}); err != nil {
		return err
	}
	for _, c := range r.Cells {
		rec := []string{c.Protocol, c.Network, c.Metric,
			fmtFloat(c.R), strconv.Itoa(c.Sites)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the heatmap cells as indented JSON.
func (r Fig6Result) JSON(w io.Writer) error { return writeJSON(w, r.Cells) }
