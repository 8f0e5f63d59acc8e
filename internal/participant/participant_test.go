package participant

import (
	"math"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/study"
)

func report(siMS int) metrics.Report {
	si := time.Duration(siMS) * time.Millisecond
	return metrics.Report{FVC: si / 2, SI: si, VC85: si, LVC: si * 2, PLT: si * 2, Complete: true}
}

func votesFor(t *testing.T, g study.Group, left, right metrics.Report, n int) (a, b, nodiff int, replays float64) {
	t.Helper()
	rng := prng.New(99)
	stim := NewABStimulus(g, left, right)
	for i := 0; i < n; i++ {
		m := New(g, rng)
		v, conf, rep := m.ABVote(&stim)
		if conf < 1 || conf > 5 {
			t.Fatalf("confidence %d out of range", conf)
		}
		replays += float64(rep)
		switch v {
		case study.VoteLeft:
			a++
		case study.VoteRight:
			b++
		default:
			nodiff++
		}
	}
	replays /= float64(n)
	return
}

func TestABVoteLargeDifferenceDetected(t *testing.T) {
	// Right twice as fast: the population overwhelmingly votes right.
	left, right := report(4000), report(2000)
	l, r, nd, _ := votesFor(t, study.Lab, left, right, 500)
	if r < 400 {
		t.Fatalf("right votes = %d/500 (left=%d nodiff=%d), want > 400", r, l, nd)
	}
}

func TestABVoteTinyDifferenceMostlyNoDiff(t *testing.T) {
	// 2% difference is far below the JND.
	left, right := report(2000), report(1960)
	_, _, nd, _ := votesFor(t, study.Microworker, left, right, 500)
	if nd < 250 {
		t.Fatalf("no-difference votes = %d/500, want majority", nd)
	}
}

func TestABVoteSymmetry(t *testing.T) {
	// Swapping the sides swaps the winning side.
	fast, slow := report(1500), report(3000)
	l1, r1, _, _ := votesFor(t, study.Lab, fast, slow, 400)
	l2, r2, _, _ := votesFor(t, study.Lab, slow, fast, 400)
	if l1 < r1 {
		t.Fatalf("fast-on-left should win left: %d vs %d", l1, r1)
	}
	if r2 < l2 {
		t.Fatalf("fast-on-right should win right: %d vs %d", r2, l2)
	}
}

func TestABVoteReplaysHigherWhenSubtle(t *testing.T) {
	_, _, _, subtle := votesFor(t, study.Lab, report(2000), report(1950), 400)
	_, _, _, obvious := votesFor(t, study.Lab, report(4000), report(1500), 400)
	if subtle <= obvious {
		t.Fatalf("subtle replays %.2f should exceed obvious %.2f", subtle, obvious)
	}
}

func TestRateFasterIsBetter(t *testing.T) {
	rng := prng.New(5)
	fastStim := NewRatingStimulus(report(800), study.AtWork)
	slowStim := NewRatingStimulus(report(8000), study.AtWork)
	var fast, slow []float64
	for i := 0; i < 300; i++ {
		m := New(study.Microworker, rng)
		f, _ := m.Rate(&fastStim)
		s, _ := m.Rate(&slowStim)
		fast = append(fast, f)
		slow = append(slow, s)
	}
	if stats.Mean(fast) <= stats.Mean(slow)+10 {
		t.Fatalf("fast %.1f should rate well above slow %.1f", stats.Mean(fast), stats.Mean(slow))
	}
}

func TestRateBounds(t *testing.T) {
	rng := prng.New(6)
	for i := 0; i < 500; i++ {
		m := New(study.Internet, rng)
		stim := NewRatingStimulus(report(100+rng.Intn(60000)), study.Environments()[i%3])
		s, q := m.Rate(&stim)
		if s < study.RatingMin || s > study.RatingMax || q < study.RatingMin || q > study.RatingMax {
			t.Fatalf("rating out of bounds: %v %v", s, q)
		}
	}
}

func TestRatePlaneContextForgiving(t *testing.T) {
	// The same slow load is rated higher when framed "on a plane" than "at
	// work": lowered expectations.
	rng := prng.New(7)
	// A 5-second load: clearly slow at work, unremarkable at altitude.
	workStim := NewRatingStimulus(report(5000), study.AtWork)
	planeStim := NewRatingStimulus(report(5000), study.OnPlane)
	var work, plane []float64
	for i := 0; i < 300; i++ {
		m := New(study.Microworker, rng)
		w, _ := m.Rate(&workStim)
		p, _ := m.Rate(&planeStim)
		work = append(work, w)
		plane = append(plane, p)
	}
	if stats.Mean(plane) <= stats.Mean(work) {
		t.Fatalf("plane %.1f should be more forgiving than work %.1f",
			stats.Mean(plane), stats.Mean(work))
	}
}

func TestRatingDistributionsNormality(t *testing.T) {
	// Lab and µWorker votes should pass Jarque-Bera; Internet votes (with
	// the outlier mixture) should fail — the paper's Fig. 3 observation.
	sample := func(g study.Group) []float64 {
		rng := prng.New(11)
		// A mid-scale stimulus: far from the 10/70 clamps, so the noise
		// distribution itself is what the test sees.
		stim := NewRatingStimulus(report(25000), study.FreeTime)
		out := make([]float64, 1200)
		for i := range out {
			m := New(g, rng)
			out[i], _ = m.Rate(&stim)
		}
		return out
	}
	_, pLab, err := stats.JarqueBera(sample(study.Lab))
	if err != nil {
		t.Fatal(err)
	}
	_, pInternet, err := stats.JarqueBera(sample(study.Internet))
	if err != nil {
		t.Fatal(err)
	}
	if pLab < 0.01 {
		t.Fatalf("lab ratings should look normal, p=%v", pLab)
	}
	if pInternet > 0.01 {
		t.Fatalf("internet ratings should be non-normal, p=%v", pInternet)
	}
}

func TestBehaviourLabIsClean(t *testing.T) {
	sessions := Population(study.Lab, conformance.AB, 35, 1)
	kept, f := conformance.Filter(sessions)
	if len(kept) != 35 || f.Final() != 35 {
		t.Fatalf("lab sessions must all survive: %v", f)
	}
}

func TestBehaviourFunnelMatchesTable3(t *testing.T) {
	// Expected survivors from Table 3; allow sampling slack.
	cases := []struct {
		g     study.Group
		k     conformance.StudyKind
		start int
		final int
	}{
		{study.Microworker, conformance.AB, 487, 233},
		{study.Microworker, conformance.Rating, 1563, 614},
		{study.Internet, conformance.AB, 218, 155},
		{study.Internet, conformance.Rating, 209, 138},
	}
	for _, c := range cases {
		sessions := Population(c.g, c.k, c.start, 42)
		_, f := conformance.Filter(sessions)
		tol := int(math.Max(12, 0.12*float64(c.final)))
		if diff := f.Final() - c.final; diff < -tol || diff > tol {
			t.Fatalf("%v/%v funnel final = %d, want %d±%d (%v)",
				c.g, c.k, f.Final(), c.final, tol, f.After)
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := Population(study.Microworker, conformance.AB, 100, 9)
	b := Population(study.Microworker, conformance.AB, 100, 9)
	for i := range a {
		if a[i].MaxFocusLoss != b[i].MaxFocusLoss || a[i].VotedBeforeFVC != b[i].VotedBeforeFVC {
			t.Fatal("population generation not deterministic")
		}
	}
}
