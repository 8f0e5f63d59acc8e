package transport

import (
	"testing"
)

// FuzzRangeSetAdd is a go test -fuzz-compatible target for the reassembly
// RangeSet: the fuzzer's byte string is decoded into a sequence of Add
// operations over a small sequence space, and the set is checked after every
// step against a naive boolean-array model — coverage, cumulative-ack point
// from every sequence number, merged-range invariants, containment of
// intervals around every inserted range's edges, and SACK-block extraction
// must all agree.
//
// Run the seeds as a normal test (go test), or explore with:
//
//	go test -fuzz FuzzRangeSetAdd ./internal/transport
func FuzzRangeSetAdd(f *testing.F) {
	f.Add([]byte{0, 10, 20, 10, 10, 10, 5, 3})
	f.Add([]byte{250, 250, 0, 255, 128, 1, 127, 2, 126, 4})
	f.Add([]byte{1, 0, 0, 1, 2, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const space = 512 // model sequence space
		var s RangeSet
		model := make([]bool, space)
		// Containment probes: every inserted interval and its neighbours
		// one unit wider, narrower or shifted at either edge, so the binary
		// search meets each range boundary from both sides.
		probes := [][2]int64{{0, 1}, {10, 20}, {100, 130}, {500, 512}}
		for i := 0; i+1 < len(data); i += 2 {
			start := int64(data[i]) * 2
			length := int64(data[i+1]) % 64
			end := min(start+length, space)
			for _, d := range [][2]int64{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, 1}, {1, -1}} {
				if a, b := start+d[0], end+d[1]; 0 <= a && a < b && b <= space {
					probes = append(probes, [2]int64{a, b})
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			start := int64(data[i]) * 2
			length := int64(data[i+1]) % 64
			end := min(start+length, space)
			s.Add(start, end)
			for q := start; q < end; q++ {
				model[q] = true
			}
			checkRangeSetAgainstModel(t, &s, model, probes)
		}
	})
}

// checkRangeSetAgainstModel verifies every RangeSet query against the
// boolean-array oracle, Contains on the given probes.
func checkRangeSetAgainstModel(t *testing.T, s *RangeSet, model []bool, probes [][2]int64) {
	t.Helper()
	// Covered must equal the popcount of the model.
	var want int64
	for _, b := range model {
		if b {
			want++
		}
	}
	if got := s.Covered(); got != want {
		t.Fatalf("Covered() = %d, model has %d", got, want)
	}
	// Ranges must be sorted, non-overlapping, non-adjacent, and exactly
	// reproduce the model.
	rs := s.rs
	var prevEnd int64 = -1
	covered := make([]bool, len(model))
	for _, r := range rs {
		if r.Start >= r.End {
			t.Fatalf("empty range %v", r)
		}
		if r.Start <= prevEnd {
			t.Fatalf("ranges overlap or touch: %v after end %d", r, prevEnd)
		}
		prevEnd = r.End
		for q := r.Start; q < r.End && q < int64(len(covered)); q++ {
			covered[q] = true
		}
	}
	for q := range model {
		if model[q] != covered[q] {
			t.Fatalf("seq %d: model %v, set %v (%v)", q, model[q], covered[q], rs)
		}
	}
	// CumulativeFrom(q) is the end of the contiguous run starting at q, or
	// q itself at a hole; CumulativeFrom(0) is the cumulative-ack point.
	run := int64(len(model))
	for q := run; q >= 0; q-- {
		if q < int64(len(model)) && !model[q] {
			run = q
		}
		if got := s.CumulativeFrom(q); got != run {
			t.Fatalf("CumulativeFrom(%d) = %d, model run ends at %d", q, got, run)
		}
	}
	prefix := s.CumulativeFrom(0)
	// Contains must agree with the model on every probe.
	for _, probe := range probes {
		all := true
		for q := probe[0]; q < probe[1]; q++ {
			if !model[q] {
				all = false
				break
			}
		}
		if got := s.Contains(probe[0], probe[1]); got != all {
			t.Fatalf("Contains(%d,%d) = %v, model %v", probe[0], probe[1], got, all)
		}
	}
	// SACK extraction: at most 3 blocks, strictly above the cumulative
	// point, highest first, each block fully covered.
	blocks := s.AppendAbove(nil, prefix, 3)
	if len(blocks) > 3 {
		t.Fatalf("AppendAbove returned %d blocks", len(blocks))
	}
	var lastStart = int64(len(model)) + 1
	for _, b := range blocks {
		if b.Start < prefix || b.Len() <= 0 {
			t.Fatalf("bad SACK block %v (cum %d)", b, prefix)
		}
		if b.End > lastStart {
			t.Fatalf("SACK blocks out of order: %v then start %d", b, lastStart)
		}
		lastStart = b.Start
		if !s.Contains(b.Start, b.End) {
			t.Fatalf("SACK block %v not covered by the set", b)
		}
	}
}
