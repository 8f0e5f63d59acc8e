// Package experiments contains one experiment per table and figure of the
// paper's evaluation, plus the ablations and the 0-RTT extension experiment
// from DESIGN.md.
//
// Every experiment implements the Experiment interface and registers itself
// (in init) under its qoebench name; callers discover experiments through
// Lookup/Names/Select instead of hard-coded dispatch. An Experiment declares
// its (network × protocol) recording grid via Conditions — so a batch runner
// (internal/runner) can merge the plans of all selected experiments into a
// single testbed prewarm — and executes via Run against a caller-supplied
// shared *core.Testbed, whose recording cache deduplicates condition
// recordings across the whole batch. Run returns a Result that uniformly
// renders as text, CSV, or JSON.
//
// The exported ablation functions (AblationIW, AblationPacing, AblationHOL)
// are direct entry points besides the registry: each drives the page loader
// over its own pair of stacks and needs no testbed.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/study"
)

// Options configures a run.
type Options struct {
	Scale core.Scale
	Seed  int64
	// Population, when non-nil, executes the canonical pop-ab / pop-rating
	// engine calls and pop-sweep-adaptive's round grants (e.g. on a
	// distributed worker pool). Nil runs in process.
	Population PopulationBackend
	// Adaptive, when non-nil, overrides the canonical sequential-stopping
	// policy of adaptive experiments (pop-sweep-adaptive). Nil keeps the
	// canonical policy — which is what golden, cached, and fabric runs
	// must use, since the policy shapes the byte stream.
	Adaptive *AdaptiveOptions
}

// AdaptiveOptions tunes adaptive experiments; zero fields keep the
// canonical defaults (see PopSweepAdaptiveConfig). Workers is execution
// parallelism only and never changes result bytes.
type AdaptiveOptions struct {
	Alpha       float64
	Threshold   float64
	MinShards   int
	RoundShards int
	Workers     int
}

// DefaultOptions uses the quick scale with the canonical seed.
func DefaultOptions() Options {
	return Options{Scale: core.QuickScale(), Seed: 1}
}

// Table1Result carries the protocol-configuration table.
type Table1Result struct {
	Rows []core.Table1Row
}

// Render prints the protocol-configuration table.
func (r Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 1: protocol configurations\n")
	fmt.Fprintf(w, "%-10s %s\n", "Protocol", "Description")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %s\n", row.Protocol, row.Description)
	}
}

// CSV writes one row per protocol configuration.
func (r Table1Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"protocol", "description"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write([]string{row.Protocol, row.Description}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the rows as indented JSON.
func (r Table1Result) JSON(w io.Writer) error { return writeJSON(w, r.Rows) }

// Table2Result carries the network-configuration table.
type Table2Result struct {
	Networks []simnet.NetworkConfig
}

// Render prints the network-configuration table.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: network configurations (queue %v, DSL %v)\n",
		simnet.LTE.QueueDelay, simnet.DSL.QueueDelay)
	fmt.Fprintf(w, "%-7s %10s %10s %9s %7s\n", "Network", "Uplink", "Downlink", "min. RTT", "Loss")
	for _, n := range r.Networks {
		fmt.Fprintf(w, "%-7s %7.3f Mbps %7.3f Mbps %8s %6.1f%%\n",
			n.Name, float64(n.UplinkBps)/1e6, float64(n.DownlinkBps)/1e6,
			n.MinRTT, n.LossRate*100)
	}
}

// CSV writes one row per network configuration.
func (r Table2Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"network", "uplink_bps", "downlink_bps", "min_rtt_s", "loss_rate"}); err != nil {
		return err
	}
	for _, n := range r.Networks {
		rec := []string{
			n.Name,
			strconv.FormatInt(int64(n.UplinkBps), 10),
			strconv.FormatInt(int64(n.DownlinkBps), 10),
			fmtFloat(n.MinRTT.Seconds()),
			fmtFloat(n.LossRate),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the network configurations as indented JSON.
func (r Table2Result) JSON(w io.Writer) error { return writeJSON(w, r.Networks) }

// table1Exp and table2Exp register the static configuration tables; they
// record nothing and ignore the testbed.
type table1Exp struct{}

func (table1Exp) Name() string                                   { return "table1" }
func (table1Exp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }
func (table1Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return Table1Result{Rows: core.Table1()}, nil
}

type table2Exp struct{}

func (table2Exp) Name() string                                   { return "table2" }
func (table2Exp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }
func (table2Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return Table2Result{Networks: simnet.Networks()}, nil
}

func init() {
	Register(table1Exp{})
	Register(table2Exp{})
}

// networksByName resolves a list of Table 2 names.
func networksByName(names []string) []simnet.NetworkConfig {
	out := make([]simnet.NetworkConfig, 0, len(names))
	for _, n := range names {
		cfg, err := simnet.NetworkByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, cfg)
	}
	return out
}

// sortedEnvNetPairs iterates (environment, network) cells in Figure 5 order.
func sortedEnvNetPairs() []struct {
	Env study.Environment
	Net string
} {
	var out []struct {
		Env study.Environment
		Net string
	}
	for _, env := range study.Environments() {
		for _, n := range study.EnvironmentNetworks(env) {
			out = append(out, struct {
				Env study.Environment
				Net string
			}{env, n})
		}
	}
	return out
}

// meanOf is a tiny helper for aggregated prints.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortShares orders Figure 4 cells by pair order then network order.
func sortShares(shares []core.ABShare) {
	pairIdx := map[string]int{}
	for i, p := range study.Pairs() {
		pairIdx[p.String()] = i
	}
	netIdx := map[string]int{}
	for i, n := range simnet.Networks() {
		netIdx[n.Name] = i
	}
	sort.SliceStable(shares, func(a, b int) bool {
		if netIdx[shares[a].Network] != netIdx[shares[b].Network] {
			return netIdx[shares[a].Network] < netIdx[shares[b].Network]
		}
		return pairIdx[shares[a].Pair.String()] < pairIdx[shares[b].Pair.String()]
	})
}
