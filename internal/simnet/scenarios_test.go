package simnet

import "testing"

// TestScenarioLibraryWellFormed: every profile has positive rates, RTT, and
// queue depth, a loss rate in [0,1), and a unique name across the whole
// network space.
func TestScenarioLibraryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range AllNetworks() {
		if seen[n.Name] {
			t.Fatalf("duplicate network name %q", n.Name)
		}
		seen[n.Name] = true
		if n.UplinkBps <= 0 || n.DownlinkBps <= 0 {
			t.Fatalf("%s: non-positive rate", n.Name)
		}
		if n.MinRTT <= 0 || n.QueueDelay <= 0 {
			t.Fatalf("%s: non-positive delay", n.Name)
		}
		if n.LossRate < 0 || n.LossRate >= 1 {
			t.Fatalf("%s: loss rate %v out of range", n.Name, n.LossRate)
		}
	}
	if len(ScenarioNetworks()) < 4 {
		t.Fatalf("library has %d profiles, want >= 4", len(ScenarioNetworks()))
	}
}

// TestScenarioByNameCoversBothSpaces: Table 2 rows and library profiles both
// resolve; Table 2 resolution matches NetworkByName exactly.
func TestScenarioByNameCoversBothSpaces(t *testing.T) {
	for _, n := range AllNetworks() {
		got, err := ScenarioByName(n.Name)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if got != n {
			t.Fatalf("%s: resolved %+v, want %+v", n.Name, got, n)
		}
	}
	for _, n := range Networks() {
		viaOld, err := NetworkByName(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		viaNew, err := ScenarioByName(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		if viaOld != viaNew {
			t.Fatalf("%s: lookup divergence", n.Name)
		}
	}
	if _, err := ScenarioByName("no-such-net"); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

// TestScaled: scaling moves exactly the rate and RTT dimensions and renames
// the result.
func TestScaled(t *testing.T) {
	base := LTE
	fast := base.Scaled(2)
	if fast.UplinkBps != 2*base.UplinkBps || fast.DownlinkBps != 2*base.DownlinkBps {
		t.Fatalf("scaled rates wrong: %+v", fast)
	}
	if fast.MinRTT != base.MinRTT/2 {
		t.Fatalf("scaled RTT wrong: %v", fast.MinRTT)
	}
	if fast.LossRate != base.LossRate || fast.QueueDelay != base.QueueDelay {
		t.Fatalf("scaling must not touch loss/queue: %+v", fast)
	}
	if fast.Name == base.Name {
		t.Fatal("scaled variant must be renamed")
	}
}
