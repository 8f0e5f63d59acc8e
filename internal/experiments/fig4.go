package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/study"
)

// Fig4Result carries the A/B study outcome: vote shares per protocol pair
// and network, plus average replay counts.
type Fig4Result struct {
	Shares  []core.ABShare
	Outcome core.ABOutcome
}

// fig4Exp is the registered "fig4" experiment.
type fig4Exp struct{}

func (fig4Exp) Name() string { return "fig4" }

// Conditions declares every network crossed with the protocols appearing in
// the Figure 4 pairings (in Table 1 catalog order).
func (fig4Exp) Conditions() ([]simnet.NetworkConfig, []string) {
	protos := map[string]bool{}
	for _, p := range study.Pairs() {
		protos[p.A] = true
		protos[p.B] = true
	}
	var plist []string
	for _, name := range core.ProtocolNames() {
		if protos[name] {
			plist = append(plist, name)
		}
	}
	return simnet.Networks(), plist
}

func (fig4Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return fig4Run(tb, opts)
}

func init() { Register(fig4Exp{}) }

// fig4Run runs the A/B study for the µWorker group (the paper's main crowd)
// over the full pair × network × site grid.
func fig4Run(tb *core.Testbed, opts Options) (Fig4Result, error) {
	conditions, err := tb.ABConditions(simnet.Networks())
	if err != nil {
		return Fig4Result{}, err
	}
	outcome := core.RunABStudy(study.Microworker, conditions, opts.Seed)
	shares := outcome.Shares()
	sortShares(shares)
	return Fig4Result{Shares: shares, Outcome: outcome}, nil
}

// Share returns the cell for a pair and network.
func (r Fig4Result) Share(pair study.ProtocolPair, network string) (core.ABShare, bool) {
	for _, s := range r.Shares {
		if s.Pair == pair && s.Network == network {
			return s, true
		}
	}
	return core.ABShare{}, false
}

// Render prints Figure 4 as a text table: share of votes per protocol
// combination per network, with the average replay count.
func (r Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: A/B study vote shares per protocol combination and network\n")
	fmt.Fprintf(w, "%-7s %-22s %8s %8s %8s %8s %6s\n",
		"Network", "Pair", "fast(A)", "no diff", "slow(B)", "replays", "N")
	lastNet := ""
	for _, s := range r.Shares {
		net := s.Network
		if net == lastNet {
			net = ""
		} else {
			lastNet = net
		}
		fmt.Fprintf(w, "%-7s %-22s %7.1f%% %7.1f%% %7.1f%% %8.2f %6d\n",
			net, s.Pair.String(), 100*s.ShareA, 100*s.ShareNone, 100*s.ShareB,
			s.AvgReplays, s.N)
	}
}

// CSV writes the A/B vote shares, one row per (network, pair).
func (r Fig4Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"network", "pair_a", "pair_b", "share_a", "share_nodiff", "share_b", "avg_replays", "n"}); err != nil {
		return err
	}
	for _, s := range r.Shares {
		rec := []string{
			s.Network, s.Pair.A, s.Pair.B,
			fmtFloat(s.ShareA), fmtFloat(s.ShareNone), fmtFloat(s.ShareB),
			fmtFloat(s.AvgReplays), strconv.Itoa(s.N),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the share cells as indented JSON.
func (r Fig4Result) JSON(w io.Writer) error { return writeJSON(w, r.Shares) }
