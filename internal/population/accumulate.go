package population

import (
	"fmt"

	"repro/internal/conformance"
)

// This file holds the population engine's one fold, for both designs: an
// accumulator that merges per-shard aggregates, in ascending absolute shard
// order, into the cumulative aggregates of the covered prefix. Every result
// goes through it. Runs (RunAB, RunRating) absorb their private shards
// directly; reduces (ReduceAB, ReduceRating) and the adaptive subsystem's
// round grants (internal/adaptive) validate each wire state, import it into
// a scratch shard and absorb that. A distributed run is therefore
// byte-identical to a local one by construction: the two differ only in
// where the shard aggregates come from. The design enters only through its
// cells: their Merge, and the import-and-validate of their wire form.
//
// Truncation invariant (pinned by tests): after absorbing shards 0..k-1, an
// accumulator's cell aggregates, conformance funnel, and kept/vote counters
// are bit-identical to those of a full run truncated at the same
// participants. This holds because shard seeds are absolute (shard i's bytes
// never depend on whether shard i+1 runs) and every caller folds in the same
// ascending order (Welford's merge is not float-associative, so order is
// part of the contract). An early-stopped cell therefore reports exactly the
// state it would have had mid-flight in a full run — partial-budget funnels
// and rating histograms included.

// totals are the counters every shard carries beside its cells.
type totals struct {
	funnel conformance.StreamFunnel
	kept   int64
	votes  int64
}

func (t *totals) add(o *totals) {
	t.funnel.Merge(o.funnel)
	t.kept += o.kept
	t.votes += o.votes
}

// accumulator folds the ascending shard prefix of one population run of a
// design (ABAccumulator for the A/B design). Not safe for concurrent use.
type accumulator[C, S any, P cellStats[C, S]] struct {
	d    design[C]
	cfg  Config
	next int // next absolute shard index expected
	totals
	cells   []C
	scratch shard[C] // import target of Absorb
}

// newAccumulator builds an accumulator for a run of d with the normalized
// form of cfg.
func newAccumulator[C, S any, P cellStats[C, S]](d design[C], cfg Config) (*accumulator[C, S, P], error) {
	if err := checkCells(d); err != nil {
		return nil, err
	}
	return &accumulator[C, S, P]{d: d, cfg: cfg.withDefaults(), cells: d.newCells(1)}, nil
}

// Config returns the normalized configuration the accumulator folds under.
func (a *accumulator[C, S, P]) Config() Config { return a.cfg }

// Shards returns how many shards have been absorbed; the absorbed prefix is
// always [0, Shards()).
func (a *accumulator[C, S, P]) Shards() int { return a.next }

// Done reports whether the full run has been absorbed.
func (a *accumulator[C, S, P]) Done() bool { return a.next == a.cfg.Shards }

// Votes returns the simulated votes folded in so far.
func (a *accumulator[C, S, P]) Votes() int64 { return a.votes }

// Kept returns the conformance-surviving participants folded in so far.
func (a *accumulator[C, S, P]) Kept() int64 { return a.kept }

// Cell returns a read-only view of cell i's cumulative aggregates at the
// current prefix — the round-boundary state sequential stopping peeks at.
// The pointer stays valid (and keeps mutating) across Absorb calls.
func (a *accumulator[C, S, P]) Cell(i int) *C { return &a.cells[i] }

// Participants returns the pre-filter participant count covered by the
// absorbed prefix (the partial-budget analogue of the result's
// Participants).
func (a *accumulator[C, S, P]) Participants() int {
	if a.next == 0 {
		return 0
	}
	_, hi := shardRange(a.cfg.Participants, a.cfg.Shards, a.next-1)
	return hi
}

// absorb folds the next shard's aggregates into the prefix.
func (a *accumulator[C, S, P]) absorb(sh *shard[C]) {
	for i := range a.cells {
		P(&a.cells[i]).Merge(&sh.cells[i])
	}
	a.add(&sh.totals)
	a.next++
}

// Absorb validates the next shard states and folds them into the prefix.
// States must continue the ascending, gap-free absolute-shard sequence and
// hold the counts the engine produces; anything else is an error and leaves
// the accumulator unchanged up to the offending state.
func (a *accumulator[C, S, P]) Absorb(states []shardState[S]) error {
	if a.scratch.cells == nil {
		a.scratch.cells = a.d.newCells(1)
	}
	for i := range states {
		if err := a.load(&states[i]); err != nil {
			return err
		}
		a.absorb(&a.scratch)
	}
	return nil
}

// load checks that a wire state continues the prefix and holds the counts
// the engine produces for that shard — its funnel, its kept count, and cell
// votes that add up — and imports it into the scratch shard.
func (a *accumulator[C, S, P]) load(st *shardState[S]) error {
	shard, t := st.Shard, &a.scratch.totals
	if shard != a.next {
		return fmt.Errorf("population: expected shard %d, got %d (states must be ascending and gap-free)", a.next, shard)
	}
	if shard >= a.cfg.Shards {
		return fmt.Errorf("population: shard %d out of range for %d shards", shard, a.cfg.Shards)
	}
	fs := st.Funnel
	if err := t.funnel.Import(fs); err != nil {
		return fmt.Errorf("population: shard %d: %w", shard, err)
	}
	lo, hi := shardRange(a.cfg.Participants, a.cfg.Shards, shard)
	wantKept := int64(hi - lo)
	if a.cfg.Conformance {
		if kind := a.d.kind(); fs.Group != a.cfg.Group || fs.Kind != kind || fs.Start != hi-lo {
			return fmt.Errorf("population: shard %d funnel is %v %v over %d participants, want %v %v over %d",
				shard, fs.Group, fs.Kind, fs.Start, a.cfg.Group, kind, hi-lo)
		}
		wantKept = int64(fs.FirstViol[conformance.RuleCount])
	} else if fs != (conformance.FunnelState{}) {
		return fmt.Errorf("population: shard %d carries a funnel but conformance is off", shard)
	}
	if st.Kept != wantKept {
		return fmt.Errorf("population: shard %d kept %d participants, want %d", shard, st.Kept, wantKept)
	}
	t.kept, t.votes = st.Kept, st.Votes
	if len(st.Cells) != len(a.cells) {
		return fmt.Errorf("population: shard %d carries %d cells, want %d", shard, len(st.Cells), len(a.cells))
	}
	var votes int64
	for ci := range st.Cells {
		n, err := P(&a.scratch.cells[ci]).load(&st.Cells[ci], shard, ci, st.Kept)
		if err != nil {
			return err
		}
		votes += n
	}
	if st.Votes != votes {
		return fmt.Errorf("population: shard %d counts %d votes but its cells hold %d", shard, st.Votes, votes)
	}
	return nil
}

// checkCellVotes bounds one cell's vote count: a participant votes on a cell
// at most once, so no cell holds more votes than the shard kept.
func checkCellVotes(shard, cell int, n, kept int64) error {
	if n < 0 || n > kept {
		return fmt.Errorf("population: shard %d cell %d holds %d votes from %d kept participants", shard, cell, n, kept)
	}
	return nil
}

// Result materializes the current prefix. Participants reflects only the
// covered prefix, so a partial-budget cell reports its true population, not
// the configured full budget; once Done, the result is the full run's. For
// the rating design the returned cells share histogram storage with the
// accumulator.
func (a *accumulator[C, S, P]) Result() result[C] {
	res := result[C]{
		Cells:        append([]C(nil), a.cells...),
		Participants: a.Participants(),
		Kept:         a.kept,
		Votes:        a.votes,
		Shards:       a.cfg.Shards,
	}
	if a.cfg.Conformance {
		res.Funnel = a.funnel.Funnel()
	}
	return res
}
