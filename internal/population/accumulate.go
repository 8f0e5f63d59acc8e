package population

import (
	"fmt"

	"repro/internal/conformance"
)

// This file holds the population engine's one fold: accumulators that merge
// per-shard aggregates, in ascending absolute shard order, into the
// cumulative aggregates of the covered prefix. Every result goes through it.
// RunAB/RunRating absorb their private shards directly; ReduceAB/
// ReduceRating and the adaptive subsystem's round grants (internal/adaptive)
// validate each wire state, import it into a scratch shard and absorb that.
// A distributed run is therefore byte-identical to a local one by
// construction: the two differ only in where the shard aggregates come from.
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

// prefix is the design-independent state of an accumulator: the absorbed
// shard prefix [0, next) and its totals.
type prefix struct {
	cfg  Config
	kind conformance.StudyKind
	next int // next absolute shard index expected
	totals
}

// Participants returns the pre-filter participant count covered by the
// absorbed prefix (the partial-budget analogue of ABResult.Participants).
func (p *prefix) Participants() int {
	if p.next == 0 {
		return 0
	}
	_, hi := shardRange(p.cfg.Participants, p.cfg.Shards, p.next-1)
	return hi
}

// loadTotals checks that a wire state continues the prefix and that its
// funnel and kept count are what the engine produces for that shard, and
// imports them into t. The caller checks the vote count against the cells.
func (p *prefix) loadTotals(t *totals, shard int, kept, votes int64, fs conformance.FunnelState) error {
	if shard != p.next {
		return fmt.Errorf("population: expected shard %d, got %d (states must be ascending and gap-free)", p.next, shard)
	}
	if shard >= p.cfg.Shards {
		return fmt.Errorf("population: shard %d out of range for %d shards", shard, p.cfg.Shards)
	}
	if err := t.funnel.Import(fs); err != nil {
		return fmt.Errorf("population: shard %d: %w", shard, err)
	}
	lo, hi := shardRange(p.cfg.Participants, p.cfg.Shards, shard)
	wantKept := int64(hi - lo)
	if p.cfg.Conformance {
		if fs.Group != p.cfg.Group || fs.Kind != p.kind || fs.Start != hi-lo {
			return fmt.Errorf("population: shard %d funnel is %v %v over %d participants, want %v %v over %d",
				shard, fs.Group, fs.Kind, fs.Start, p.cfg.Group, p.kind, hi-lo)
		}
		wantKept = int64(fs.FirstViol[conformance.RuleCount])
	} else if fs != (conformance.FunnelState{}) {
		return fmt.Errorf("population: shard %d carries a funnel but conformance is off", shard)
	}
	if kept != wantKept {
		return fmt.Errorf("population: shard %d kept %d participants, want %d", shard, kept, wantKept)
	}
	t.kept, t.votes = kept, votes
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

// checkShardVotes checks a shard's vote count against the sum over its cells.
func checkShardVotes(shard int, votes, cellVotes int64) error {
	if votes != cellVotes {
		return fmt.Errorf("population: shard %d counts %d votes but its cells hold %d", shard, votes, cellVotes)
	}
	return nil
}

// ABAccumulator folds the ascending shard prefix of one A/B population run.
// Not safe for concurrent use.
type ABAccumulator struct {
	prefix
	cells   []ABCellStats
	scratch abShard // import target of Absorb
}

// NewABAccumulator builds an accumulator for a run over cells with the
// normalized form of cfg.
func NewABAccumulator(cells []ABCell, cfg Config) (*ABAccumulator, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("population: no A/B cells")
	}
	a := &ABAccumulator{prefix: prefix{cfg: cfg.withDefaults(), kind: conformance.AB}, cells: make([]ABCellStats, len(cells))}
	for i, c := range cells {
		a.cells[i].Label = c.Label
	}
	return a, nil
}

// Config returns the normalized configuration the accumulator folds under.
func (a *ABAccumulator) Config() Config { return a.cfg }

// Shards returns how many shards have been absorbed; the absorbed prefix is
// always [0, Shards()).
func (a *ABAccumulator) Shards() int { return a.next }

// Done reports whether the full run has been absorbed.
func (a *ABAccumulator) Done() bool { return a.next == a.cfg.Shards }

// Votes returns the simulated votes folded in so far.
func (a *ABAccumulator) Votes() int64 { return a.votes }

// Kept returns the conformance-surviving participants folded in so far.
func (a *ABAccumulator) Kept() int64 { return a.kept }

// Cell returns a read-only view of cell i's cumulative aggregates at the
// current prefix — the round-boundary state sequential stopping peeks at.
// The pointer stays valid (and keeps mutating) across Absorb calls.
func (a *ABAccumulator) Cell(i int) *ABCellStats { return &a.cells[i] }

// absorb folds the next shard's aggregates into the prefix.
func (a *ABAccumulator) absorb(sh *abShard) {
	for i := range a.cells {
		a.cells[i].Merge(&sh.cells[i])
	}
	a.add(&sh.totals)
	a.next++
}

// Absorb validates the next shard states and folds them into the prefix.
// States must continue the ascending, gap-free absolute-shard sequence and
// hold the counts the engine produces; anything else is an error and leaves
// the accumulator unchanged up to the offending state.
func (a *ABAccumulator) Absorb(states []ABShardState) error {
	if a.scratch.cells == nil {
		a.scratch.cells = make([]ABCellStats, len(a.cells))
	}
	for i := range states {
		if err := a.load(&states[i]); err != nil {
			return err
		}
		a.absorb(&a.scratch)
	}
	return nil
}

// load validates one wire state and imports it into the scratch shard.
func (a *ABAccumulator) load(st *ABShardState) error {
	if err := a.loadTotals(&a.scratch.totals, st.Shard, st.Kept, st.Votes, st.Funnel); err != nil {
		return err
	}
	if len(st.Cells) != len(a.cells) {
		return fmt.Errorf("population: shard %d carries %d cells, want %d", st.Shard, len(st.Cells), len(a.cells))
	}
	var votes int64
	for ci := range st.Cells {
		cs := &st.Cells[ci]
		n := cs.VotesA + cs.VotesB + cs.VotesNone
		for _, c := range [...]int64{cs.VotesA, cs.VotesB, cs.VotesNone, n} {
			if err := checkCellVotes(st.Shard, ci, c, st.Kept); err != nil {
				return err
			}
		}
		if cs.Confidence.N != n || cs.Replays.N != n {
			return fmt.Errorf("population: shard %d cell %d has %d votes but confidence n=%d, replays n=%d",
				st.Shard, ci, n, cs.Confidence.N, cs.Replays.N)
		}
		votes += n
		c := &a.scratch.cells[ci]
		c.VotesA, c.VotesB, c.VotesNone = cs.VotesA, cs.VotesB, cs.VotesNone
		c.Confidence.Import(cs.Confidence)
		c.Replays.Import(cs.Replays)
	}
	return checkShardVotes(st.Shard, st.Votes, votes)
}

// Result materializes the current prefix as an ABResult. Participants
// reflects only the covered prefix, so a partial-budget cell reports its
// true population, not the configured full budget; once Done, the result is
// the full run's.
func (a *ABAccumulator) Result() ABResult {
	res := ABResult{
		Cells:        append([]ABCellStats(nil), a.cells...),
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

// ratingAccumulator is ABAccumulator's counterpart for the rating design.
type ratingAccumulator struct {
	prefix
	cells   []RatingCellStats
	scratch ratingShard // import target of Absorb
}

func newRatingAccumulator(cells []RatingCell, cfg Config) (*ratingAccumulator, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("population: no rating cells")
	}
	a := &ratingAccumulator{prefix: prefix{cfg: cfg.withDefaults(), kind: conformance.Rating}, cells: make([]RatingCellStats, len(cells))}
	for i, c := range cells {
		a.cells[i] = NewRatingCellStats(c.Label, c.Env)
	}
	return a, nil
}

// absorb folds the next shard's aggregates into the prefix.
func (a *ratingAccumulator) absorb(sh *ratingShard) {
	for i := range a.cells {
		a.cells[i].Merge(&sh.cells[i])
	}
	a.add(&sh.totals)
	a.next++
}

// Absorb validates the next shard states and folds them into the prefix;
// see ABAccumulator.Absorb for the contract.
func (a *ratingAccumulator) Absorb(states []RatingShardState) error {
	if a.scratch.cells == nil {
		a.scratch = newRatingShards(1, len(a.cells))[0]
	}
	for i := range states {
		if err := a.load(&states[i]); err != nil {
			return err
		}
		a.absorb(&a.scratch)
	}
	return nil
}

// load validates one wire state and imports it into the scratch shard.
func (a *ratingAccumulator) load(st *RatingShardState) error {
	if err := a.loadTotals(&a.scratch.totals, st.Shard, st.Kept, st.Votes, st.Funnel); err != nil {
		return err
	}
	if len(st.Cells) != len(a.cells) {
		return fmt.Errorf("population: shard %d carries %d cells, want %d", st.Shard, len(st.Cells), len(a.cells))
	}
	var votes int64
	for ci := range st.Cells {
		cs := &st.Cells[ci]
		n := cs.Speed.N
		if err := checkCellVotes(st.Shard, ci, n, st.Kept); err != nil {
			return err
		}
		if cs.Quality.N != n || cs.Hist.N != n {
			return fmt.Errorf("population: shard %d cell %d has %d votes but quality n=%d, histogram n=%d",
				st.Shard, ci, n, cs.Quality.N, cs.Hist.N)
		}
		votes += n
		c := &a.scratch.cells[ci]
		if err := c.Hist.Import(cs.Hist); err != nil {
			return fmt.Errorf("population: shard %d cell %d: %w", st.Shard, ci, err)
		}
		c.Speed.Import(cs.Speed)
		c.Quality.Import(cs.Quality)
	}
	return checkShardVotes(st.Shard, st.Votes, votes)
}

// Result materializes the current prefix as a RatingResult; see
// ABAccumulator.Result for the partial-budget semantics. The returned cells
// share histogram storage with the accumulator.
func (a *ratingAccumulator) Result() RatingResult {
	res := RatingResult{
		Cells:        append([]RatingCellStats(nil), a.cells...),
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
