package study

import "testing"

func TestGroupsAndStrings(t *testing.T) {
	if len(Groups()) != 3 {
		t.Fatal("three groups expected")
	}
	for _, g := range Groups() {
		if g.String() == "?" {
			t.Fatalf("group %d unnamed", g)
		}
	}
	if Group(99).String() != "?" {
		t.Fatal("unknown group should stringify to ?")
	}
}

func TestEnvironmentNetworks(t *testing.T) {
	if got := EnvironmentNetworks(OnPlane); len(got) != 2 || got[0] != "DA2GC" || got[1] != "MSS" {
		t.Fatalf("plane networks = %v", got)
	}
	for _, e := range []Environment{AtWork, FreeTime} {
		got := EnvironmentNetworks(e)
		if len(got) != 2 || got[0] != "DSL" || got[1] != "LTE" {
			t.Fatalf("%v networks = %v", e, got)
		}
	}
}

func TestScaleLabels(t *testing.T) {
	if len(ScaleLabels()) != 7 {
		t.Fatal("seven-point scale expected")
	}
	cases := []struct {
		v    float64
		want string
	}{
		{10, "extremely bad"}, {15, "extremely bad"}, {25, "bad"},
		{35, "poor"}, {45, "fair"}, {55, "good"}, {65, "excellent"},
		{70, "ideal"}, {5, "extremely bad"}, {80, "ideal"},
	}
	for _, c := range cases {
		if got := ScaleLabel(c.v); got != c.want {
			t.Fatalf("ScaleLabel(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestPairsFigure4(t *testing.T) {
	pairs := Pairs()
	if len(pairs) != 4 {
		t.Fatal("Figure 4 has four pairings")
	}
	want := []string{"TCP+ vs. TCP", "QUIC vs. TCP", "QUIC vs. TCP+", "QUIC+BBR vs. TCP+BBR"}
	for i, p := range pairs {
		if p.String() != want[i] {
			t.Fatalf("pair %d = %q, want %q", i, p, want[i])
		}
	}
}

func TestSessionPlansSection41(t *testing.T) {
	ratings := func(p SessionPlan) int { return p.RatingWork + p.RatingFree + p.RatingPlane }
	lab := PlanFor(Lab)
	if lab.ABVideos != 28 || ratings(lab) != 27 {
		t.Fatalf("lab plan: %+v", lab)
	}
	mw := PlanFor(Microworker)
	if mw.ABVideos != 26 || ratings(mw) != 27 || mw.PayoutUSD != 0.75 {
		t.Fatalf("µWorker plan: %+v", mw)
	}
	inet := PlanFor(Internet)
	if inet.ABVideos != 14 || ratings(inet) != 15 {
		t.Fatalf("internet plan: %+v", inet)
	}
	if inet.RatingPlane != 3 || mw.RatingPlane != 5 {
		t.Fatal("plane video counts wrong")
	}
}

func TestParticipationTable3(t *testing.T) {
	if p := ParticipationFor(Lab); p.AB != 35 || p.Rating != 35 {
		t.Fatalf("lab participation: %+v", p)
	}
	if p := ParticipationFor(Microworker); p.AB != 487 || p.Rating != 1563 {
		t.Fatalf("µWorker participation: %+v", p)
	}
	if p := ParticipationFor(Internet); p.AB != 218 || p.Rating != 209 {
		t.Fatalf("internet participation: %+v", p)
	}
}

func TestRatingProtocolsTable1(t *testing.T) {
	ps := RatingProtocols()
	if len(ps) != 5 {
		t.Fatal("five protocol stacks expected")
	}
}

func TestVoteStrings(t *testing.T) {
	for _, v := range []Vote{VoteLeft, VoteRight, VoteNoDifference} {
		if v.String() == "?" {
			t.Fatal("vote unnamed")
		}
	}
}
