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
	"repro/internal/stats"
	"repro/internal/study"
)

// Fig3Row is one condition on Figure 3's x-axis: the lab and µWorker means
// with 99% confidence intervals and the Internet group's median (the paper
// shows the median there because those votes are not normally distributed).
type Fig3Row struct {
	Condition      core.RatingCondition
	Lab            stats.Interval
	MWorker        stats.Interval
	InternetMedian float64
	LabN, MWN, INN int
}

// Fig3Result carries the cross-group agreement analysis.
type Fig3Result struct {
	Rows []Fig3Row
	// Normality screens (Jarque-Bera p-values over pooled votes).
	LabNormalP      float64
	MWorkerNormalP  float64
	InternetNormalP float64
}

// fig3Exp is the registered "fig3" experiment.
type fig3Exp struct{}

func (fig3Exp) Name() string { return "fig3" }

func (fig3Exp) Conditions() ([]simnet.NetworkConfig, []string) {
	return simnet.Networks(), study.RatingProtocols()
}

func (fig3Exp) Run(_ context.Context, tb *core.Testbed, opts Options) (Result, error) {
	return fig3Run(tb, opts)
}

func init() { Register(fig3Exp{}) }

// fig3Run runs the rating study for all three groups over the lab-tested
// condition subset (the 27 conditions a lab session covers: 11 work, 11
// free time, 5 plane) and compares their agreement, ordered by the lab mean
// as in the paper's plot.
func fig3Run(tb *core.Testbed, opts Options) (Fig3Result, error) {
	all, err := tb.RatingConditions()
	if err != nil {
		return Fig3Result{}, err
	}
	conditions := labTestedSubset(all)

	labOut := core.RunRatingStudy(study.Lab, conditions, opts.Seed)
	mwOut := core.RunRatingStudy(study.Microworker, conditions, opts.Seed+1)
	inOut := core.RunRatingStudy(study.Internet, conditions, opts.Seed+2)

	var res Fig3Result
	var labAll, mwAll, inAll []float64
	for i := range conditions {
		lab := labOut.Speed[i]
		mw := mwOut.Speed[i]
		in := inOut.Speed[i]
		if len(lab) < 2 || len(mw) < 2 {
			continue
		}
		labCI, err := stats.MeanCI(lab, 0.99)
		if err != nil {
			return Fig3Result{}, err
		}
		mwCI, err := stats.MeanCI(mw, 0.99)
		if err != nil {
			return Fig3Result{}, err
		}
		res.Rows = append(res.Rows, Fig3Row{
			Condition:      conditions[i],
			Lab:            labCI,
			MWorker:        mwCI,
			InternetMedian: stats.Median(in),
			LabN:           len(lab), MWN: len(mw), INN: len(in),
		})
		labAll = append(labAll, lab...)
		mwAll = append(mwAll, mw...)
		inAll = append(inAll, in...)
	}
	// Order by lab mean, as the paper's x-axis.
	sort.SliceStable(res.Rows, func(a, b int) bool {
		return res.Rows[a].Lab.Point < res.Rows[b].Lab.Point
	})
	if _, p, err := stats.JarqueBera(centerByCondition(labOut.Speed)); err == nil {
		res.LabNormalP = p
	}
	if _, p, err := stats.JarqueBera(centerByCondition(mwOut.Speed)); err == nil {
		res.MWorkerNormalP = p
	}
	if _, p, err := stats.JarqueBera(centerByCondition(inOut.Speed)); err == nil {
		res.InternetNormalP = p
	}
	_ = labAll
	_ = mwAll
	_ = inAll
	return res, nil
}

// centerByCondition pools votes after removing each condition's mean, so the
// normality screen tests the vote noise rather than the condition spread.
// Conditions rated near the scale boundaries are skipped: their votes are
// censored by the 10..70 clamp and cannot be normal by construction.
func centerByCondition(votes [][]float64) []float64 {
	var out []float64
	for _, vs := range votes {
		if len(vs) < 2 {
			continue
		}
		m := stats.Mean(vs)
		if m > 62 || m < 18 {
			continue
		}
		for _, v := range vs {
			out = append(out, v-m)
		}
	}
	return out
}

// labTestedSubset deterministically picks the 27 lab conditions (11 work,
// 11 free time, 5 plane) from the full grid, spreading over sites and
// protocols.
func labTestedSubset(all []core.RatingCondition) []core.RatingCondition {
	want := map[study.Environment]int{
		study.AtWork:   11,
		study.FreeTime: 11,
		study.OnPlane:  5,
	}
	var out []core.RatingCondition
	for _, env := range study.Environments() {
		var pool []core.RatingCondition
		for _, c := range all {
			if c.Environment == env {
				pool = append(pool, c)
			}
		}
		n := want[env]
		if n > len(pool) {
			n = len(pool)
		}
		// Stride through the pool for coverage across protocols and sites.
		if n > 0 {
			stride := len(pool) / n
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < n; i++ {
				out = append(out, pool[(i*stride)%len(pool)])
			}
		}
	}
	return out
}

// AgreementShare returns the fraction of conditions where the µWorker mean
// falls inside the lab group's 99% CI — the paper's argument that the paid
// crowd votes are legitimate.
func (r Fig3Result) AgreementShare() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	in := 0
	for _, row := range r.Rows {
		if row.Lab.Contains(row.MWorker.Point) || row.Lab.Overlaps(row.MWorker) {
			in++
		}
	}
	return float64(in) / float64(len(r.Rows))
}

// Render prints the agreement table.
func (r Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: rating agreement across groups (ordered by lab mean)\n")
	fmt.Fprintf(w, "%-34s %-22s %-22s %8s\n", "Condition", "Lab mean [99% CI]", "µWorker mean [99% CI]", "Int med")
	for _, row := range r.Rows {
		c := row.Condition
		fmt.Fprintf(w, "%-34s %6.1f [%5.1f,%5.1f]    %6.1f [%5.1f,%5.1f]    %8.1f\n",
			fmt.Sprintf("%s/%s/%s/%s", c.Site, c.Network, c.Protocol, c.Environment),
			row.Lab.Point, row.Lab.Lo, row.Lab.Hi,
			row.MWorker.Point, row.MWorker.Lo, row.MWorker.Hi,
			row.InternetMedian)
	}
	fmt.Fprintf(w, "µWorker-in-lab-CI agreement: %.0f%%\n", 100*r.AgreementShare())
	fmt.Fprintf(w, "Normality (Jarque-Bera p, centered votes): lab=%.3f µWorker=%.3f internet=%.3f\n",
		r.LabNormalP, r.MWorkerNormalP, r.InternetNormalP)
}

// CSV writes one row per condition with the three groups' statistics.
func (r Fig3Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"site", "network", "protocol", "environment",
		"lab_mean", "lab_ci_lo", "lab_ci_hi", "lab_n",
		"mworker_mean", "mworker_ci_lo", "mworker_ci_hi", "mworker_n",
		"internet_median", "internet_n"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		c := row.Condition
		rec := []string{
			c.Site, c.Network, c.Protocol, c.Environment.String(),
			fmtFloat(row.Lab.Point), fmtFloat(row.Lab.Lo), fmtFloat(row.Lab.Hi), strconv.Itoa(row.LabN),
			fmtFloat(row.MWorker.Point), fmtFloat(row.MWorker.Lo), fmtFloat(row.MWorker.Hi), strconv.Itoa(row.MWN),
			fmtFloat(row.InternetMedian), strconv.Itoa(row.INN),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the full result as indented JSON.
func (r Fig3Result) JSON(w io.Writer) error { return writeJSON(w, r) }
