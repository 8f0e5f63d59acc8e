package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/study"
)

func quickOpts() Options {
	return Options{Scale: core.Scale{Sites: core.QuickScale().Sites, Reps: 3}, Seed: 7}
}

// runFresh looks up a registered experiment, prewarms its declared
// conditions on a fresh testbed, and runs it: one experiment on its own,
// with no recordings shared across a batch.
func runFresh[R Result](t testing.TB, name string, opts Options) R {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	tb := core.NewTestbed(opts.Scale, opts.Seed)
	nets, prots := e.Conditions()
	if err := tb.Prewarm(context.Background(), nets, prots); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.(R)
}

func TestTable1Render(t *testing.T) {
	var buf bytes.Buffer
	runFresh[Table1Result](t, "table1", DefaultOptions()).Render(&buf)
	out := buf.String()
	for _, want := range []string{"TCP+", "QUIC+BBR", "IW32", "IW10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Render(t *testing.T) {
	var buf bytes.Buffer
	runFresh[Table2Result](t, "table2", DefaultOptions()).Render(&buf)
	out := buf.String()
	for _, want := range []string{"DSL", "LTE", "DA2GC", "MSS", "760ms", "6.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3FunnelShape(t *testing.T) {
	res := Table3(42)
	if len(res.Funnels) != 6 {
		t.Fatalf("funnels = %d, want 6", len(res.Funnels))
	}
	// Lab survives fully.
	labAB, ok := res.Funnel(study.Lab, conformance.AB)
	if !ok || labAB.Final() != 35 {
		t.Fatalf("lab A/B funnel: %v", labAB)
	}
	// µWorker rating funnel: starts at 1563, final near 614.
	mwR, ok := res.Funnel(study.Microworker, conformance.Rating)
	if !ok || mwR.Start != 1563 {
		t.Fatalf("µWorker rating start: %v", mwR)
	}
	if mwR.Final() < 500 || mwR.Final() > 730 {
		t.Fatalf("µWorker rating final = %d, want ~614", mwR.Final())
	}
	// Monotone non-increasing.
	prev := mwR.Start
	for _, a := range mwR.After {
		if a > prev {
			t.Fatalf("funnel increased: %v", mwR.After)
		}
		prev = a
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "R7") {
		t.Fatal("render missing rule columns")
	}
}

func TestFig4Shapes(t *testing.T) {
	res := runFresh[Fig4Result](t, "fig4", quickOpts())
	if len(res.Shares) != 16 {
		t.Fatalf("cells = %d, want 4 pairs x 4 networks", len(res.Shares))
	}
	pairs := study.Pairs()
	quicVsTCP := pairs[1]

	dsl, _ := res.Share(quicVsTCP, "DSL")
	lte, _ := res.Share(quicVsTCP, "LTE")
	mss, _ := res.Share(quicVsTCP, "MSS")

	// Shares are probabilities.
	for _, s := range res.Shares {
		sum := s.ShareA + s.ShareB + s.ShareNone
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("shares do not sum to 1: %+v", s)
		}
		if s.N == 0 {
			t.Fatalf("empty cell: %+v", s)
		}
	}
	// Noticing gets easier as networks slow down: QUIC-vs-TCP no-difference
	// share shrinks from DSL to MSS.
	if !(mss.ShareNone < dsl.ShareNone) {
		t.Fatalf("no-diff share should shrink DSL (%.2f) -> MSS (%.2f)", dsl.ShareNone, mss.ShareNone)
	}
	// On LTE and slower, the majority that notices prefers QUIC.
	if lte.ShareA <= lte.ShareB {
		t.Fatalf("LTE: QUIC share %.2f should beat TCP %.2f", lte.ShareA, lte.ShareB)
	}
	if mss.ShareA <= mss.ShareB {
		t.Fatalf("MSS: QUIC share %.2f should beat TCP %.2f", mss.ShareA, mss.ShareB)
	}
	// Replays are highest where differences are hardest to spot (DSL).
	var dslReplay, mssReplay float64
	for _, s := range res.Shares {
		if s.Network == "DSL" {
			dslReplay += s.AvgReplays
		}
		if s.Network == "MSS" {
			mssReplay += s.AvgReplays
		}
	}
	if dslReplay <= mssReplay {
		t.Fatalf("replays on DSL (%.2f) should exceed MSS (%.2f)", dslReplay, mssReplay)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "QUIC vs. TCP") {
		t.Fatal("render missing pair labels")
	}
}

func TestFig5Shapes(t *testing.T) {
	res := runFresh[Fig5Result](t, "fig5", quickOpts())
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	// Plane ratings are much worse than DSL ratings.
	var dslMean, planeMean float64
	var dslN, planeN int
	for _, c := range res.Cells {
		switch {
		case c.Network == "DSL":
			dslMean += c.CI.Point
			dslN++
		case c.Environment == study.OnPlane:
			planeMean += c.CI.Point
			planeN++
		}
	}
	dslMean /= float64(dslN)
	planeMean /= float64(planeN)
	if dslMean <= planeMean+10 {
		t.Fatalf("DSL mean %.1f should far exceed plane mean %.1f", dslMean, planeMean)
	}
	// Within a network, CIs of the five protocols mostly overlap (the "do
	// users care? mostly not" takeaway): demand pairwise overlap for the
	// majority of DSL pairs.
	var dslCells []Fig5Cell
	for _, c := range res.Cells {
		if c.Network == "DSL" && c.Environment == study.FreeTime {
			dslCells = append(dslCells, c)
		}
	}
	overlap, total := 0, 0
	for i := 0; i < len(dslCells); i++ {
		for j := i + 1; j < len(dslCells); j++ {
			total++
			if dslCells[i].CI.Overlaps(dslCells[j].CI) {
				overlap++
			}
		}
	}
	if total == 0 || float64(overlap) < 0.5*float64(total) {
		t.Fatalf("DSL free-time CIs should mostly overlap: %d/%d", overlap, total)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "ANOVA") {
		t.Fatal("render missing ANOVA section")
	}
}

func TestFig3Shapes(t *testing.T) {
	res := runFresh[Fig3Result](t, "fig3", quickOpts())
	if len(res.Rows) < 15 {
		t.Fatalf("rows = %d, want >= 15", len(res.Rows))
	}
	// x-axis ordered by lab mean.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Lab.Point < res.Rows[i-1].Lab.Point {
			t.Fatal("rows not ordered by lab mean")
		}
	}
	// µWorkers agree with the lab for most conditions.
	if res.AgreementShare() < 0.6 {
		t.Fatalf("agreement share %.2f too low", res.AgreementShare())
	}
	// Internet votes non-normal, lab/µWorker normal (paper's Fig. 3 note).
	if res.InternetNormalP > 0.01 {
		t.Fatalf("internet votes should fail normality, p=%v", res.InternetNormalP)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "agreement") {
		t.Fatal("render missing agreement line")
	}
}

func TestFig6Shapes(t *testing.T) {
	res := runFresh[Fig6Result](t, "fig6", quickOpts())
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	means := res.MeanRByMetric()
	// SI correlates negatively overall.
	if means["SI"] >= -0.3 {
		t.Fatalf("SI mean r = %.2f, want clearly negative", means["SI"])
	}
	// SI correlates better (more negative) than PLT — the paper's headline.
	if !(means["SI"] < means["PLT"]) {
		t.Fatalf("SI (%.2f) should beat PLT (%.2f)", means["SI"], means["PLT"])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Mean r per metric") {
		t.Fatal("render missing summary")
	}
}

func TestAblationsRun(t *testing.T) {
	opts := Options{Scale: core.Scale{Sites: core.QuickScale().Sites[:2], Reps: 2}, Seed: 3}
	iw := AblationIW(opts)
	if len(iw) != 4 {
		t.Fatalf("IW ablation rows = %d", len(iw))
	}
	zero := Ext0RTT(opts)
	for _, r := range zero {
		if !r.WinnerA {
			t.Fatalf("0-RTT should always win on %s: %+v", r.Network, r)
		}
	}
	var buf bytes.Buffer
	RenderAblation(&buf, "IW", iw)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
