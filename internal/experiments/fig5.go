package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
)

// Fig5Cell is one bar of Figure 5: the mean rating (with 99% CI) of one
// protocol in one network under one environment framing.
type Fig5Cell struct {
	Protocol    string
	Network     string
	Environment study.Environment
	CI          stats.Interval
	N           int
}

// ANOVAEntry is the §4.4 significance screen for one (environment, network)
// cell across the five protocols.
type ANOVAEntry struct {
	Environment study.Environment
	Network     string
	Result      stats.ANOVAResult
	SigAt99     bool
	SigAt90     bool
}

// SiteDiff is one row of the "Where it Makes a Difference" drill-down: a
// website where two protocols' ratings differ significantly (Welch test at
// the 90% level, as the paper's per-site discussion).
type SiteDiff struct {
	Network    string
	Site       string
	Better     string
	Worse      string
	MeanBetter float64
	MeanWorse  float64
	P          float64
}

// Fig5Result carries the rating-study analysis.
type Fig5Result struct {
	Cells     []Fig5Cell
	ANOVA     []ANOVAEntry
	SiteDiffs []SiteDiff
	Outcome   core.RatingOutcome
}

// fig5Exp is the registered "fig5" experiment.
type fig5Exp struct{}

func (fig5Exp) Name() string { return "fig5" }

func (fig5Exp) Conditions() ([]simnet.NetworkConfig, []string) {
	return simnet.Networks(), study.RatingProtocols()
}

func (fig5Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return fig5Run(tb, opts)
}

func init() { Register(fig5Exp{}) }

// fig5Run runs the rating study for the µWorker group and performs the
// paper's §4.4 analyses: per-cell 99% confidence intervals, the ANOVA
// significance screen, and the per-website drill-down.
func fig5Run(tb *core.Testbed, opts Options) (Fig5Result, error) {
	conditions, err := tb.RatingConditions()
	if err != nil {
		return Fig5Result{}, err
	}
	outcome := core.RunRatingStudy(study.Microworker, conditions, opts.Seed)

	var res Fig5Result
	res.Outcome = outcome

	// Aggregate votes per (environment, network, protocol).
	votes := map[cellKey][]float64{}
	siteVotes := map[cellKey]map[string][]float64{}
	for i, c := range outcome.Conditions {
		k := cellKey{c.Environment, c.Network, c.Protocol}
		votes[k] = append(votes[k], outcome.Speed[i]...)
		if siteVotes[k] == nil {
			siteVotes[k] = map[string][]float64{}
		}
		siteVotes[k][c.Site] = append(siteVotes[k][c.Site], outcome.Speed[i]...)
	}

	for _, en := range sortedEnvNetPairs() {
		for _, prot := range study.RatingProtocols() {
			vs := votes[cellKey{en.Env, en.Net, prot}]
			if len(vs) < 2 {
				continue
			}
			ci, err := stats.MeanCI(vs, 0.99)
			if err != nil {
				return Fig5Result{}, err
			}
			res.Cells = append(res.Cells, Fig5Cell{
				Protocol: prot, Network: en.Net, Environment: en.Env,
				CI: ci, N: len(vs),
			})
		}
		// ANOVA across protocols for this (env, network).
		var groups [][]float64
		for _, prot := range study.RatingProtocols() {
			if vs := votes[cellKey{en.Env, en.Net, prot}]; len(vs) >= 2 {
				groups = append(groups, vs)
			}
		}
		if len(groups) >= 2 {
			an, err := stats.OneWayANOVA(groups...)
			if err != nil {
				return Fig5Result{}, err
			}
			res.ANOVA = append(res.ANOVA, ANOVAEntry{
				Environment: en.Env, Network: en.Net, Result: an,
				SigAt99: an.Significant(0.99), SigAt90: an.Significant(0.90),
			})
		}
	}

	// Per-site drill-down: pairwise Welch tests between protocols on the
	// same site and network (work/free environments merged for DSL/LTE as
	// the paper pools them per network).
	res.SiteDiffs = siteDrilldown(siteVotes)
	return res, nil
}

// cellKey identifies one (environment, network, protocol) aggregation cell.
type cellKey struct {
	env  study.Environment
	net  string
	prot string
}

func siteDrilldown(siteVotes map[cellKey]map[string][]float64) []SiteDiff {
	// Re-key by (net, site, prot), merging environments.
	type nk struct {
		net  string
		site string
		prot string
	}
	merged := map[nk][]float64{}
	for k, bySite := range siteVotes {
		for site, vs := range bySite {
			key := nk{k.net, site, k.prot}
			merged[key] = append(merged[key], vs...)
		}
	}
	var out []SiteDiff
	protos := study.RatingProtocols()
	for _, net := range []string{"DSL", "LTE", "DA2GC", "MSS"} {
		siteSet := map[string]bool{}
		for k := range merged {
			if k.net == net {
				siteSet[k.site] = true
			}
		}
		sites := make([]string, 0, len(siteSet))
		for s := range siteSet {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, site := range sites {
			for i := 0; i < len(protos); i++ {
				for j := i + 1; j < len(protos); j++ {
					a := merged[nk{net, site, protos[i]}]
					b := merged[nk{net, site, protos[j]}]
					if len(a) < 4 || len(b) < 4 {
						continue
					}
					_, p, err := stats.WelchTTest(a, b)
					if err != nil || p >= 0.10 {
						continue
					}
					better, worse := protos[i], protos[j]
					ma, mb := stats.Mean(a), stats.Mean(b)
					if mb > ma {
						better, worse = worse, better
						ma, mb = mb, ma
					}
					out = append(out, SiteDiff{
						Network: net, Site: site,
						Better: better, Worse: worse,
						MeanBetter: ma, MeanWorse: mb, P: p,
					})
				}
			}
		}
	}
	return out
}

// Cell returns the Figure 5 cell for a protocol/network/environment.
func (r Fig5Result) Cell(prot, net string, env study.Environment) (Fig5Cell, bool) {
	for _, c := range r.Cells {
		if c.Protocol == prot && c.Network == net && c.Environment == env {
			return c, true
		}
	}
	return Fig5Cell{}, false
}

// Render prints Figure 5 plus the ANOVA screen and the site drill-down.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: rating study mean votes (99%% CI) per protocol and setting\n")
	fmt.Fprintf(w, "%-11s %-7s %-9s %7s %18s %6s %s\n",
		"Environment", "Network", "Protocol", "mean", "99% CI", "N", "label")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-11s %-7s %-9s %7.1f [%6.1f, %6.1f] %6d %s\n",
			c.Environment, c.Network, c.Protocol, c.CI.Point, c.CI.Lo, c.CI.Hi,
			c.N, study.ScaleLabel(c.CI.Point))
	}
	fmt.Fprintf(w, "\nANOVA across protocols (per environment x network):\n")
	for _, a := range r.ANOVA {
		sig := "not significant"
		if a.SigAt99 {
			sig = "significant at 99%"
		} else if a.SigAt90 {
			sig = "significant at 90%"
		}
		fmt.Fprintf(w, "%-11s %-7s %s  -> %s\n", a.Environment, a.Network, a.Result, sig)
	}
	fmt.Fprintf(w, "\nWhere it makes a difference (per-site Welch, p < 0.10):\n")
	for _, d := range r.SiteDiffs {
		fmt.Fprintf(w, "%-7s %-18s %-9s (%.1f) over %-9s (%.1f), p=%.3f\n",
			d.Network, d.Site, d.Better, d.MeanBetter, d.Worse, d.MeanWorse, d.P)
	}
}

// CSV writes the rating cells, one row per (environment, network, protocol).
func (r Fig5Result) CSV(w io.Writer) error {
	return writeCSV(w, []string{"environment", "network", "protocol", "mean", "ci_lo", "ci_hi", "n"}, r.Cells,
		func(c Fig5Cell) []string {
			return []string{
				c.Environment.String(), c.Network, c.Protocol,
				fmtFloat(c.CI.Point), fmtFloat(c.CI.Lo), fmtFloat(c.CI.Hi), strconv.Itoa(c.N),
			}
		})
}

// JSON writes the rating cells as indented JSON.
func (r Fig5Result) JSON(w io.Writer) error { return writeJSON(w, r.Cells) }
