package stats

import "fmt"

// This file gives the online aggregators wire-encodable state: exported
// snapshot structs with JSON tags plus lossless export/import. The
// distributed study fabric ships per-shard aggregates between processes as
// JSON, and Go's encoding/json formats float64 with the shortest
// representation that round-trips exactly, so State/Import is bit-lossless —
// a reduce over imported states merges to the same bits as a reduce over the
// in-memory originals. The states are an internal wire format versioned by
// the stream schema (qoe.SchemaVersion), not a public stability surface.

// WelfordState is the complete state of a Welford accumulator.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State snapshots the accumulator.
func (w *Welford) State() WelfordState { return WelfordState{N: w.n, Mean: w.mean, M2: w.m2} }

// Import replaces the accumulator's state with a snapshot.
func (w *Welford) Import(s WelfordState) { *w = Welford{n: s.N, mean: s.Mean, m2: s.M2} }

// StreamHistState is the complete state of a StreamHist.
type StreamHistState struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	N    int64   `json:"n"`
	Bins []int64 `json:"bins"`
}

// State snapshots the histogram. The returned Bins alias the live bins; wire
// encoders serialize them immediately, and importers copy.
func (h *StreamHist) State() StreamHistState {
	return StreamHistState{Lo: h.lo, Hi: h.hi, N: h.n, Bins: h.bins}
}

// Import replaces the histogram's counts with a snapshot, copying them into
// the histogram's own bin storage. The histogram must already be bound to
// storage of the snapshot's bin count (NewStreamHist or Init) with the same
// range — a mismatch is a wire/schema error, reported rather than panicked
// so a garbled shard response degrades into a retryable error.
func (h *StreamHist) Import(s StreamHistState) error {
	if s.Hi <= s.Lo {
		return fmt.Errorf("stats: invalid histogram state range [%g, %g]", s.Lo, s.Hi)
	}
	if s.Lo != h.lo || s.Hi != h.hi || len(s.Bins) != len(h.bins) {
		return fmt.Errorf("stats: histogram state [%g, %g]/%d bins incompatible with [%g, %g]/%d",
			s.Lo, s.Hi, len(s.Bins), h.lo, h.hi, len(h.bins))
	}
	var n int64
	for i, c := range s.Bins {
		if c < 0 {
			return fmt.Errorf("stats: negative histogram bin count %d", c)
		}
		h.bins[i] = c
		n += c
	}
	if n != s.N {
		return fmt.Errorf("stats: histogram state n=%d but bins sum to %d", s.N, n)
	}
	h.n = s.N
	return nil
}
