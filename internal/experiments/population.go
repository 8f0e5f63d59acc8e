package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/study"
)

// The pop-* experiment family asks the paper's "would this hold at scale?"
// question directly: the same two study designs, run over a synthetic
// µWorker population two to three orders of magnitude past the ~150 real
// participants, across the scenario library rather than the four Table 2
// networks. internal/population streams every vote through online
// aggregators, so these runs complete in seconds with memory bounded by the
// stimulus grid.

// popParticipants is the pre-filter synthetic population per study. With the
// Table 3-calibrated µWorker survival (~40-48%) and the µWorker session
// plans (26 A/B videos, 27 ratings), it yields well over a million votes per
// run at any -scale.
const popParticipants = 120_000

// popSweepPanel is the per-step population of the pop-sweep noticeability
// crossover.
const popSweepPanel = 25_000

// ---- pop-ab ----

// PopABRow is one aggregated (pair × scenario) cell of the population A/B
// study.
type PopABRow struct {
	Pair     study.ProtocolPair
	Scenario string
	N        int64
	ShareA   float64 // prefers the supposedly faster variant
	ShareNo  float64
	ShareB   float64
	Noticed  stats.Interval // Wilson 99% CI on the notice share
	MeanConf float64
	Replays  float64
}

// PopABResult carries the population A/B study outcome.
type PopABResult struct {
	Rows         []PopABRow
	Participants int
	Kept         int64
	Votes        int64
	Funnel       string
}

// The canonical population studies' registry names; the shard protocol
// addresses them by these (see CanonicalConfig).
const (
	popABName     = "pop-ab"
	popRatingName = "pop-rating"
)

type popABExp struct{}

func (popABExp) Name() string { return popABName }

// Conditions declares the scenario library crossed with the five stacks, so
// the batch prewarm records the library exactly once alongside the paper
// grid.
func (popABExp) Conditions() ([]simnet.NetworkConfig, []string) {
	return simnet.ScenarioNetworks(), study.RatingProtocols()
}

func (popABExp) Run(ctx context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return popABRun(ctx, tb, opts)
}

// popABCells builds the stimulus grid: the Figure 4 condition grid
// (core.ABConditions, which owns the side assignment) over every library
// scenario and testbed site.
func popABCells(tb *core.Testbed) ([]population.ABCell, error) {
	conds, err := tb.ABConditions(simnet.ScenarioNetworks())
	if err != nil {
		return nil, err
	}
	cells := make([]population.ABCell, len(conds))
	for i, c := range conds {
		cells[i] = population.ABCell{
			Label:   c.Pair.String() + "|" + c.Network + "|" + c.Site,
			Left:    c.Video.Left.Report,
			Right:   c.Video.Right.Report,
			AOnLeft: c.AOnLeft,
		}
	}
	return cells, nil
}

func popABRun(ctx context.Context, tb *core.Testbed, opts Options) (PopABResult, error) {
	cells, err := popABCells(tb)
	if err != nil {
		return PopABResult{}, err
	}
	runAB := population.RunAB
	if opts.Population != nil {
		runAB = opts.Population.RunAB
	}
	res, err := runAB(ctx, cells, PopABConfig(opts.Seed))
	if err != nil {
		return PopABResult{}, err
	}

	out := PopABResult{
		Participants: res.Participants,
		Kept:         res.Kept,
		Votes:        res.Votes,
		Funnel:       res.Funnel.String(),
	}
	// Merge the site cells of each (pair × scenario) in cell order.
	sites := len(tb.Scale.Sites)
	i := 0
	for _, pair := range study.Pairs() {
		for _, net := range simnet.ScenarioNetworks() {
			var agg population.ABCellStats
			for s := 0; s < sites; s++ {
				agg.Merge(&res.Cells[i])
				i++
			}
			noticed := agg.Noticed()
			ci, err := noticed.CI(0.99)
			if err != nil {
				return PopABResult{}, err
			}
			out.Rows = append(out.Rows, PopABRow{
				Pair:     pair,
				Scenario: net.Name,
				N:        agg.N(),
				ShareA:   agg.ShareA(),
				ShareNo:  agg.ShareNone(),
				ShareB:   agg.ShareB(),
				Noticed:  ci,
				MeanConf: agg.Confidence.Mean(),
				Replays:  agg.Replays.Mean(),
			})
		}
	}
	return out, nil
}

// Render prints the population A/B study as a Figure 4-shaped table over the
// scenario library.
func (r PopABResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Population A/B study: %d synthetic µWorkers over the scenario library\n", r.Participants)
	fmt.Fprintf(w, "funnel: %s\n", r.Funnel)
	fmt.Fprintf(w, "kept %d participants, %d votes (memory O(cells))\n\n", r.Kept, r.Votes)
	fmt.Fprintf(w, "%-22s %-16s %8s %6s %6s %6s %22s %5s %7s\n",
		"Pair", "Scenario", "N", "A", "none", "B", "noticed [99% CI]", "conf", "replays")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %-16s %8d %5.1f%% %5.1f%% %5.1f%%  %5.1f%% [%5.1f,%5.1f]%%  %5.2f %7.2f\n",
			row.Pair, row.Scenario, row.N,
			100*row.ShareA, 100*row.ShareNo, 100*row.ShareB,
			100*row.Noticed.Point, 100*row.Noticed.Lo, 100*row.Noticed.Hi,
			row.MeanConf, row.Replays)
	}
}

// CSV writes one row per (pair, scenario).
func (r PopABResult) CSV(w io.Writer) error {
	return writeCSV(w, []string{"pair", "scenario", "n", "share_a", "share_none", "share_b",
		"noticed", "noticed_ci_lo", "noticed_ci_hi", "mean_confidence", "mean_replays"}, r.Rows,
		func(row PopABRow) []string {
			return []string{
				row.Pair.String(), row.Scenario, strconv.FormatInt(row.N, 10),
				fmtFloat(row.ShareA), fmtFloat(row.ShareNo), fmtFloat(row.ShareB),
				fmtFloat(row.Noticed.Point), fmtFloat(row.Noticed.Lo), fmtFloat(row.Noticed.Hi),
				fmtFloat(row.MeanConf), fmtFloat(row.Replays),
			}
		})
}

// JSON writes the aggregated rows as indented JSON.
func (r PopABResult) JSON(w io.Writer) error { return writeJSON(w, r.Rows) }

// ---- pop-rating ----

// PopRatingRow is one aggregated (environment × scenario × protocol) cell of
// the population rating study.
type PopRatingRow struct {
	Environment study.Environment
	Scenario    string
	Protocol    string
	N           int64
	Mean        stats.Interval // Student-t 99% CI from the Welford stream
	StdDev      float64
	Median      float64 // interpolated from the streaming histogram
	P10, P90    float64
}

// PopRatingResult carries the population rating study outcome.
type PopRatingResult struct {
	Rows         []PopRatingRow
	Participants int
	Kept         int64
	Votes        int64
	Funnel       string
}

type popRatingExp struct{}

func (popRatingExp) Name() string { return popRatingName }

func (popRatingExp) Conditions() ([]simnet.NetworkConfig, []string) {
	return simnet.ScenarioNetworks(), study.RatingProtocols()
}

func (popRatingExp) Run(ctx context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return popRatingRun(ctx, tb, opts)
}

// popRatingCells builds the rating grid: every environment framing crossed
// with the library scenarios, five stacks, and the testbed sites. Unlike the
// paper's grid, every scenario appears under every framing — the library is
// not tied to the plane story.
func popRatingCells(tb *core.Testbed) ([]population.RatingCell, error) {
	var cells []population.RatingCell
	for _, env := range study.Environments() {
		for _, net := range simnet.ScenarioNetworks() {
			for _, prot := range study.RatingProtocols() {
				for _, site := range tb.Scale.Sites {
					rec, err := tb.Typical(site, net, prot)
					if err != nil {
						return nil, err
					}
					cells = append(cells, population.RatingCell{
						Label: env.String() + "|" + net.Name + "|" + prot + "|" + site.Name,
						Rep:   rec.Report,
						Env:   env,
					})
				}
			}
		}
	}
	return cells, nil
}

func popRatingRun(ctx context.Context, tb *core.Testbed, opts Options) (PopRatingResult, error) {
	cells, err := popRatingCells(tb)
	if err != nil {
		return PopRatingResult{}, err
	}
	runRating := population.RunRating
	if opts.Population != nil {
		runRating = opts.Population.RunRating
	}
	res, err := runRating(ctx, cells, PopABConfig(opts.Seed))
	if err != nil {
		return PopRatingResult{}, err
	}

	out := PopRatingResult{
		Participants: res.Participants,
		Kept:         res.Kept,
		Votes:        res.Votes,
		Funnel:       res.Funnel.String(),
	}
	sites := len(tb.Scale.Sites)
	i := 0
	for _, env := range study.Environments() {
		for _, net := range simnet.ScenarioNetworks() {
			for _, prot := range study.RatingProtocols() {
				agg := population.NewRatingCellStats("", env)
				for s := 0; s < sites; s++ {
					agg.Merge(&res.Cells[i])
					i++
				}
				ci, err := agg.Speed.MeanCI(0.99)
				if err != nil {
					return PopRatingResult{}, err
				}
				out.Rows = append(out.Rows, PopRatingRow{
					Environment: env,
					Scenario:    net.Name,
					Protocol:    prot,
					N:           agg.Speed.N(),
					Mean:        ci,
					StdDev:      agg.Speed.StdDev(),
					Median:      agg.Hist.Median(),
					P10:         agg.Hist.Quantile(0.10),
					P90:         agg.Hist.Quantile(0.90),
				})
			}
		}
	}
	return out, nil
}

// Render prints the population rating study as a Figure 5-shaped table over
// the scenario library.
func (r PopRatingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Population rating study: %d synthetic µWorkers over the scenario library\n", r.Participants)
	fmt.Fprintf(w, "funnel: %s\n", r.Funnel)
	fmt.Fprintf(w, "kept %d participants, %d votes (memory O(cells))\n\n", r.Kept, r.Votes)
	fmt.Fprintf(w, "%-11s %-16s %-9s %8s %6s %16s %6s %6s %11s %s\n",
		"Environment", "Scenario", "Protocol", "N", "mean", "99% CI", "sd", "median", "p10-p90", "label")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11s %-16s %-9s %8d %6.1f [%6.2f,%6.2f] %6.1f %6.1f %5.1f-%5.1f %s\n",
			row.Environment, row.Scenario, row.Protocol, row.N,
			row.Mean.Point, row.Mean.Lo, row.Mean.Hi, row.StdDev,
			row.Median, row.P10, row.P90, study.ScaleLabel(row.Mean.Point))
	}
}

// CSV writes one row per (environment, scenario, protocol).
func (r PopRatingResult) CSV(w io.Writer) error {
	return writeCSV(w, []string{"environment", "scenario", "protocol", "n",
		"mean", "ci_lo", "ci_hi", "sd", "median", "p10", "p90"}, r.Rows,
		func(row PopRatingRow) []string {
			return []string{
				row.Environment.String(), row.Scenario, row.Protocol, strconv.FormatInt(row.N, 10),
				fmtFloat(row.Mean.Point), fmtFloat(row.Mean.Lo), fmtFloat(row.Mean.Hi),
				fmtFloat(row.StdDev), fmtFloat(row.Median), fmtFloat(row.P10), fmtFloat(row.P90),
			}
		})
}

// JSON writes the aggregated rows as indented JSON.
func (r PopRatingResult) JSON(w io.Writer) error { return writeJSON(w, r.Rows) }

// ---- pop-sweep ----

// PopSweepRow is one step of the population noticeability crossover: the
// Speed dimension of internal/sweep, judged by a streamed population panel
// instead of the interactive 200-voter one.
type PopSweepRow struct {
	Factor   float64 // joint bandwidth×, RTT÷ scale factor
	SIA, SIB time.Duration
	GapRatio float64
	Noticed  stats.Interval // Wilson 99% CI over the panel
	N        int64
}

// PopSweepResult carries the crossover sweep.
type PopSweepResult struct {
	Base      string
	A, B      string
	Rows      []PopSweepRow
	Crossover float64 // first factor where the notice share drops below 50%
	HasCross  bool
}

type popSweepExp struct{}

func (popSweepExp) Name() string { return "pop-sweep" }

// Conditions: pop-sweep drives the page loader directly on derived networks
// (like the ablations), so it declares no shared recordings.
func (popSweepExp) Conditions() ([]simnet.NetworkConfig, []string) { return nil, nil }

func (popSweepExp) Run(ctx context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return popSweepRun(ctx, tb, opts)
}

// popSweepFactors spans 16x around the LTE operating point: from a quarter
// of its speed to four times.
var popSweepFactors = []float64{0.25, 0.5, 1, 2, 4}

// popSweepA and popSweepB are the protocol pair both pop-sweep experiments
// compare.
const popSweepA, popSweepB = "QUIC", "TCP"

func popSweepRun(ctx context.Context, tb *core.Testbed, opts Options) (PopSweepResult, error) {
	specs, err := popSweepSpecs(ctx, tb, opts.Seed, "pop-sweep")
	if err != nil {
		return PopSweepResult{}, err
	}
	out := PopSweepResult{Base: simnet.LTE.Name, A: popSweepA, B: popSweepB}
	for i, spec := range specs {
		res, err := population.RunAB(ctx, spec.Cells, spec.Config)
		if err != nil {
			return PopSweepResult{}, err
		}
		noticed := res.Cells[0].Noticed()
		ci, err := noticed.CI(0.99)
		if err != nil {
			return PopSweepResult{}, err
		}
		cell := spec.Cells[0]
		out.Rows = append(out.Rows, PopSweepRow{
			Factor:   popSweepFactors[i],
			SIA:      cell.Left.SI,
			SIB:      cell.Right.SI,
			GapRatio: float64(cell.Right.SI) / float64(cell.Left.SI),
			Noticed:  ci,
			N:        res.Cells[0].N(),
		})
	}
	for _, row := range out.Rows {
		if row.Noticed.Point < 0.5 {
			out.Crossover = row.Factor
			out.HasCross = true
			break
		}
	}
	return out, nil
}

// Render prints the population crossover sweep.
func (r PopSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Population sweep (speed dimension over %s): %s vs %s, %d voters per step\n\n",
		r.Base, r.A, r.B, popSweepPanel)
	fmt.Fprintf(w, "%8s %10s %10s %6s %22s %8s\n", "factor", "SI(A)", "SI(B)", "B/A", "noticed [99% CI]", "N")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8g %10s %10s %6.2f  %5.1f%% [%5.1f,%5.1f]%% %8d\n",
			row.Factor, row.SIA.Round(time.Millisecond), row.SIB.Round(time.Millisecond),
			row.GapRatio, 100*row.Noticed.Point, 100*row.Noticed.Lo, 100*row.Noticed.Hi, row.N)
	}
	if r.HasCross {
		fmt.Fprintf(w, "\nnotice share falls below 50%% at factor %g: faster networks hide the protocol\n", r.Crossover)
	} else {
		fmt.Fprintf(w, "\nnotice share stays above 50%% across the sweep\n")
	}
}

// CSV writes one row per sweep step.
func (r PopSweepResult) CSV(w io.Writer) error {
	return writeCSV(w, []string{"factor", "si_a_s", "si_b_s", "gap_ratio",
		"noticed", "noticed_ci_lo", "noticed_ci_hi", "n"}, r.Rows,
		func(row PopSweepRow) []string {
			return []string{
				fmtFloat(row.Factor), fmtFloat(row.SIA.Seconds()), fmtFloat(row.SIB.Seconds()),
				fmtFloat(row.GapRatio), fmtFloat(row.Noticed.Point), fmtFloat(row.Noticed.Lo),
				fmtFloat(row.Noticed.Hi), strconv.FormatInt(row.N, 10),
			}
		})
}

// JSON writes the sweep rows as indented JSON.
func (r PopSweepResult) JSON(w io.Writer) error { return writeJSON(w, r) }

func init() {
	Register(popABExp{})
	Register(popRatingExp{})
	Register(popSweepExp{})
}
