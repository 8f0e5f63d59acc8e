package transport

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRangeSetAddMerge(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if len(s.rs) != 2 {
		t.Fatalf("count = %d", len(s.rs))
	}
	s.Add(20, 30) // bridges the gap
	if len(s.rs) != 1 {
		t.Fatalf("merge failed: %v", s.rs)
	}
	if got := s.rs[0]; got.Start != 10 || got.End != 40 {
		t.Fatalf("merged = %v", got)
	}
}

func TestRangeSetAddOverlap(t *testing.T) {
	var s RangeSet
	s.Add(0, 100)
	s.Add(50, 150)
	if len(s.rs) != 1 || s.rs[0] != (Range{0, 150}) {
		t.Fatalf("ranges = %v", s.rs)
	}
	s.Add(0, 150) // exact duplicate
	if s.Covered() != 150 {
		t.Fatalf("covered = %d", s.Covered())
	}
}

func TestRangeSetEmptyAdd(t *testing.T) {
	var s RangeSet
	s.Add(5, 5)
	s.Add(7, 3)
	if len(s.rs) != 0 {
		t.Fatalf("empty adds should be ignored: %v", s.rs)
	}
}

func TestRangeSetContains(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	cases := []struct {
		a, b int64
		want bool
	}{
		{10, 20, true}, {12, 18, true}, {10, 21, false},
		{25, 26, false}, {30, 40, true}, {9, 11, false},
	}
	for _, c := range cases {
		if got := s.Contains(c.a, c.b); got != c.want {
			t.Fatalf("Contains(%d,%d) = %v", c.a, c.b, got)
		}
	}
}

func TestRangeSetCumulativeFrom(t *testing.T) {
	var s RangeSet
	s.Add(0, 100)
	s.Add(200, 300)
	if got := s.CumulativeFrom(0); got != 100 {
		t.Fatalf("cum = %d, want 100", got)
	}
	if got := s.CumulativeFrom(100); got != 100 {
		t.Fatalf("cum at hole = %d, want 100", got)
	}
	s.Add(100, 200)
	if got := s.CumulativeFrom(0); got != 300 {
		t.Fatalf("cum = %d, want 300", got)
	}
}

func TestRangeSetAboveSACKShape(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	s.Add(60, 70)
	// SACK blocks above the cumulative point (10), newest (highest) first,
	// capped at 3.
	blocks := s.AppendAbove(nil, 10, 3)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	if blocks[0] != (Range{60, 70}) || blocks[2] != (Range{20, 30}) {
		t.Fatalf("block order wrong: %v", blocks)
	}
	// Unlimited mode returns everything above.
	all := s.AppendAbove(nil, 0, 0)
	if len(all) != 4 {
		t.Fatalf("all = %v", all)
	}
	// A range straddling seq is clipped.
	clipped := s.AppendAbove(nil, 5, 0)
	if clipped[len(clipped)-1] != (Range{5, 10}) {
		t.Fatalf("clip wrong: %v", clipped)
	}
}

// Property: RangeSet coverage equals the size of the union of inserted
// intervals regardless of insertion order, and ranges stay sorted/disjoint.
func TestPropertyRangeSetUnion(t *testing.T) {
	f := func(pairs [][2]uint16) bool {
		var s RangeSet
		covered := map[int64]bool{}
		for _, p := range pairs {
			a, b := int64(p[0]%500), int64(p[1]%500)
			if a > b {
				a, b = b, a
			}
			s.Add(a, b)
			for v := a; v < b; v++ {
				covered[v] = true
			}
		}
		if s.Covered() != int64(len(covered)) {
			return false
		}
		rs := s.rs
		for i := 1; i < len(rs); i++ {
			if rs[i-1].End >= rs[i].Start {
				return false // must stay disjoint and sorted
			}
		}
		for _, r := range rs {
			for v := r.Start; v < r.End; v++ {
				if !covered[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTEstimatorFirstSample(t *testing.T) {
	var e RTTEstimator
	if e.HasSample() {
		t.Fatal("fresh estimator should have no sample")
	}
	if e.RTO() != time.Second {
		t.Fatalf("initial RTO = %v, want 1s", e.RTO())
	}
	e.AddSample(100 * time.Millisecond)
	if e.SRTT() != 100*time.Millisecond {
		t.Fatalf("srtt = %v", e.SRTT())
	}
	// RTO = srtt + 4*rttvar = 100 + 4*50 = 300 ms.
	if e.RTO() != 300*time.Millisecond {
		t.Fatalf("RTO = %v, want 300ms", e.RTO())
	}
}

func TestRTTEstimatorSmoothing(t *testing.T) {
	var e RTTEstimator
	e.AddSample(100 * time.Millisecond)
	e.AddSample(200 * time.Millisecond)
	// srtt = 7/8*100 + 1/8*200 = 112.5 ms.
	want := 112500 * time.Microsecond
	if e.SRTT() != want {
		t.Fatalf("srtt = %v, want %v", e.SRTT(), want)
	}
	if e.MinRTT() != 100*time.Millisecond {
		t.Fatalf("min = %v", e.MinRTT())
	}
	if e.Latest() != 200*time.Millisecond {
		t.Fatalf("latest = %v", e.Latest())
	}
}

func TestRTTEstimatorMinRTOClamp(t *testing.T) {
	var e RTTEstimator
	e.AddSample(time.Millisecond)
	if e.RTO() != minRTO {
		t.Fatalf("RTO = %v, want clamped to %v", e.RTO(), minRTO)
	}
}

func TestRTTEstimatorBackoff(t *testing.T) {
	var e RTTEstimator
	e.AddSample(100 * time.Millisecond)
	base := e.RTO()
	e.Backoff = 2
	if e.RTO() != 4*base {
		t.Fatalf("backoff RTO = %v, want %v", e.RTO(), 4*base)
	}
	e.Backoff = 40
	if e.RTO() != maxRTO {
		t.Fatalf("RTO should cap at %v, got %v", maxRTO, e.RTO())
	}
	e.AddSample(100 * time.Millisecond)
	if e.Backoff != 0 {
		t.Fatal("fresh sample should reset backoff")
	}
}

func TestRTTEstimatorIgnoresNonPositive(t *testing.T) {
	var e RTTEstimator
	e.AddSample(0)
	e.AddSample(-time.Second)
	if e.HasSample() {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: KindData, ConnID: 1, PN: 5, StreamID: 3, PayloadLen: 100}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
	h := &Packet{Kind: KindHandshake, HandshakeStep: 2}
	a := &Packet{Kind: KindAck, Ack: &AckInfo{CumAck: 10}}
	if h.String() == "" || a.String() == "" {
		t.Fatal("empty String()")
	}
	for _, k := range []PacketKind{KindHandshake, KindData, KindAck, PacketKind(99)} {
		_ = k.String()
	}
}
