package qoe

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"sync"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/population"
)

// This file is the worker half of the distributed study fabric: the wire
// protocol a coordinator uses to run a shard range of a canonical pop-*
// study on a remote qoed worker, the client call that consumes it, and the
// executor the daemon mounts to serve it.
//
// The determinism contract: a shard request carries the MASTER seed and the
// study name; the worker re-derives the experiment seed exactly as the batch
// runner does (core.DeriveSeed(master, study)) and rebuilds the stimulus
// cells from its own testbed, whose per-condition recordings are themselves
// derived from the master seed. Shard indices are absolute, so shard i's
// returned aggregate state is byte-identical no matter which worker computed
// it — that is what lets a coordinator retry lost shards on any survivor.

// The studies the shard protocol can split: the canonical population runs,
// plus the adaptive sweep whose per-cell panels the sequential-stopping
// allocator grants shard ranges of. pop-sweep is excluded by design (its
// panels use per-step derived seeds and a non-canonical config); its
// adaptive sibling is shardable exactly because its cell configs are a
// canonical function of (master seed, cell index).
const (
	StudyPopAB            = "pop-ab"
	StudyPopRating        = "pop-rating"
	StudyPopSweepAdaptive = "pop-sweep-adaptive"
)

// StudyShards returns the canonical shard count of a study's population
// run — the shard space a coordinator splits and a reduction must cover.
// For the adaptive study this is the PER-CELL shard space; see StudyCells.
func StudyShards(study string) (int, error) {
	cfg, _, ok := experiments.CanonicalConfig(study, 0, 0)
	if !ok {
		return 0, unknownStudy(study)
	}
	return cfg.Normalize().Shards, nil
}

// StudyCells returns how many independent grid cells a study's shard space
// is replicated across: 1 for the canonical population runs (their cell
// grid travels inside each shard), the sweep-step count for the adaptive
// study (each step is its own population with its own shard space).
func StudyCells(study string) (int, error) {
	_, cells, _ := experiments.CanonicalConfig(study, 0, 0)
	if cells == 0 {
		return 0, unknownStudy(study)
	}
	return cells, nil
}

func unknownStudy(study string) error {
	return fmt.Errorf("qoe: unknown shard study %q (have: %s, %s, %s)", study, StudyPopAB, StudyPopRating, StudyPopSweepAdaptive)
}

// IsAdaptiveStudy reports whether a study's shard requests carry a cell
// index and require the decision-capable wire schema on the worker.
func IsAdaptiveStudy(study string) bool { return study == StudyPopSweepAdaptive }

// ShardRange is a half-open range [Lo, Hi) of absolute population shard
// indices (the engine's canonical runs use 64 shards): the engine's own
// range type, so a request's range reaches the engine unconverted.
type ShardRange = population.ShardRange

// ShardRequest names one shard-range sub-job of a canonical population
// study.
type ShardRequest struct {
	Study string     `json:"study"` // StudyPopAB, StudyPopRating, or StudyPopSweepAdaptive
	Scale Scale      `json:"scale"`
	Seed  int64      `json:"seed"` // master seed; the worker derives the rest
	Range ShardRange `json:"range"`
	// Cell addresses one grid cell of a multi-cell (adaptive) study; zero
	// for the canonical population runs.
	Cell int `json:"cell,omitempty"`
}

func (r ShardRequest) query() url.Values {
	q := url.Values{}
	q.Set("study", r.Study)
	if r.Scale != "" {
		q.Set("scale", string(r.Scale))
	}
	q.Set("seed", strconv.FormatInt(r.Seed, 10))
	q.Set("lo", strconv.Itoa(r.Range.Lo))
	q.Set("hi", strconv.Itoa(r.Range.Hi))
	if IsAdaptiveStudy(r.Study) {
		// Adaptive tuples carry their cell address and declare the wire
		// schema they require, so a worker running an older build answers
		// with a typed unsupported_schema rejection instead of silently
		// computing the wrong cell.
		q.Set("cell", strconv.Itoa(r.Cell))
		q.Set("min_schema", strconv.Itoa(SchemaVersion))
	}
	return q
}

// ShardEvent is one line of the shard-run NDJSON stream: a per-shard
// aggregate state ("shard") or the closing "shard_summary". State is kept
// raw at this layer; the coordinator decodes it against the study's state
// type (population.ABShardState / RatingShardState) at reduce time.
type ShardEvent struct {
	Type          string          `json:"type"`
	SchemaVersion int             `json:"schema_version"`
	Study         string          `json:"study"`
	Cell          int             `json:"cell,omitempty"` // adaptive studies echo the requested cell
	Shard         int             `json:"shard,omitempty"`
	State         json.RawMessage `json:"state,omitempty"`
	// Summary fields (type "shard_summary").
	Range  *ShardRange `json:"range,omitempty"`
	Shards int         `json:"shards,omitempty"`
}

// ShardData is one shard's aggregate state as returned by RunShards.
type ShardData struct {
	Shard int
	State json.RawMessage
}

// ErrTruncatedShardStream reports a shard stream that ended without its
// closing shard_summary — a died worker, a dropped connection, or a
// server-side failure. The fabric treats it as retryable.
var ErrTruncatedShardStream = fmt.Errorf("qoe: shard stream ended without shard_summary")

// RunShards executes one shard-range sub-job on a remote worker
// (GET /v1/shard) and returns the per-shard aggregate states in ascending
// shard order. The stream is validated strictly — schema version, study
// echo, contiguous shard indices covering exactly req.Range, and the
// closing summary — so a garbled or truncated response surfaces as an error
// here rather than as a silent gap at reduce time. A *RetryableError
// reports worker backpressure (HTTP 429/503).
func (c *Client) RunShards(ctx context.Context, req ShardRequest) ([]ShardData, error) {
	resp, err := c.get(ctx, "/v1/shard?"+req.query().Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	out, err := decodeShardStream(resp.Body, req)
	if err != nil && ctx.Err() != nil {
		// A cancelled request surfaces as a cut or failed read; report the
		// cancellation, not the damage it did to the stream.
		return nil, ctx.Err()
	}
	return out, err
}

// decodeShardStream reads one shard-run NDJSON stream and validates it
// strictly against req: schema version, study and cell echo, contiguous
// shard indices covering exactly req.Range, each with a state, and the
// closing summary as the last line.
func decodeShardStream(r io.Reader, req ShardRequest) ([]ShardData, error) {
	// No capacity from req.Range: the stream, not the request, bounds out.
	var out []ShardData
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	next := req.Range.Lo
	closed := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if closed {
			return nil, fmt.Errorf("qoe: shard stream continues after shard_summary")
		}
		var ev ShardEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("qoe: garbled shard stream line: %w", err)
		}
		if ev.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("qoe: shard stream speaks schema_version %d, this client %d", ev.SchemaVersion, SchemaVersion)
		}
		if ev.Study != req.Study {
			return nil, fmt.Errorf("qoe: shard stream for study %q, requested %q", ev.Study, req.Study)
		}
		if ev.Cell != req.Cell {
			return nil, fmt.Errorf("qoe: shard stream for cell %d, requested %d", ev.Cell, req.Cell)
		}
		switch ev.Type {
		case "shard":
			if ev.Shard != next {
				return nil, fmt.Errorf("qoe: shard stream expected shard %d, got %d", next, ev.Shard)
			}
			if len(ev.State) == 0 {
				return nil, fmt.Errorf("qoe: shard %d arrived without state", ev.Shard)
			}
			out = append(out, ShardData{Shard: ev.Shard, State: append(json.RawMessage(nil), ev.State...)})
			next++
		case "shard_summary":
			if ev.Range == nil || *ev.Range != req.Range || ev.Shards != req.Range.Count() || next != req.Range.Hi {
				return nil, fmt.Errorf("qoe: shard_summary accounts for %d shards of %v, want %d of %v",
					ev.Shards, ev.Range, req.Range.Count(), req.Range)
			}
			closed = true
		default:
			return nil, fmt.Errorf("qoe: unknown shard stream event %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("qoe: reading shard stream: %w", err)
	}
	if !closed {
		return nil, ErrTruncatedShardStream
	}
	return out, nil
}

// ShardExecutor computes shard-range sub-jobs on a worker: it rebuilds the
// study's stimulus cells from a (scale, master seed) testbed and streams the
// per-shard aggregate states as NDJSON. Testbeds are cached and bounded —
// one coordinator drives many shard requests against the same tuple, and
// the testbed's recording cache is what makes request N cheap — and safe
// for concurrent use, so one executor serves all of a worker's requests.
type ShardExecutor struct {
	mu       sync.Mutex
	testbeds map[string]*testbedEntry
	order    []string // FIFO eviction order for the bounded cache
	max      int
}

// testbedEntry is one cached testbed and the stimulus grids built from it.
type testbedEntry struct {
	tb *core.Testbed
	// grids holds each study's stimulus grid, a pure function of tb, built
	// on the study's first request. Guarded by ShardExecutor.mu.
	grids map[string]any
}

// NewShardExecutor returns an executor caching at most maxTestbeds testbeds
// (minimum 1; a typical worker serves one (scale, seed) tuple at a time).
func NewShardExecutor(maxTestbeds int) *ShardExecutor {
	if maxTestbeds < 1 {
		maxTestbeds = 1
	}
	return &ShardExecutor{
		testbeds: make(map[string]*testbedEntry),
		max:      maxTestbeds,
	}
}

func (e *ShardExecutor) testbed(scale core.Scale, scaleName Scale, seed int64) *testbedEntry {
	key := string(scaleName) + "|" + strconv.FormatInt(seed, 10)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.testbeds[key]; ok {
		return ent
	}
	for len(e.order) >= e.max {
		delete(e.testbeds, e.order[0])
		e.order = e.order[1:]
	}
	ent := &testbedEntry{tb: core.NewTestbed(scale, seed), grids: make(map[string]any)}
	e.testbeds[key] = ent
	e.order = append(e.order, key)
	return ent
}

// shardGrid returns a study's stimulus grid for a cached testbed, building
// it on the study's first request: every later request, and every round
// grant of every adaptive cell, reuses one measured grid, exactly like the
// coordinator's own run does. Concurrent first requests may each build the
// grid; they build the same one, and the entry keeps one. A grid goes with
// its entry when the testbed is evicted.
func shardGrid[T any](e *ShardExecutor, ent *testbedEntry, study string, build func(*core.Testbed) (T, error)) (T, error) {
	e.mu.Lock()
	cached, ok := ent.grids[study]
	e.mu.Unlock()
	if ok {
		return cached.(T), nil
	}
	grid, err := build(ent.tb)
	if err != nil {
		return grid, err
	}
	e.mu.Lock()
	ent.grids[study] = grid
	e.mu.Unlock()
	return grid, nil
}

// shardLine is one "shard" line of the stream with its state still typed,
// so the line is encoded in one pass. Its fields are ShardEvent's, in
// ShardEvent's order.
type shardLine[S any] struct {
	Type          string `json:"type"`
	SchemaVersion int    `json:"schema_version"`
	Study         string `json:"study"`
	Cell          int    `json:"cell,omitempty"`
	Shard         int    `json:"shard,omitempty"`
	State         *S     `json:"state"`
}

// writeShardStream writes one "shard" line per state, then the
// "shard_summary". The range runners return one state per shard of
// req.Range in ascending order, so state i is shard req.Range.Lo+i.
func writeShardStream[S any](w io.Writer, req ShardRequest, states []S) error {
	enc := json.NewEncoder(w)
	for i := range states {
		line := shardLine[S]{
			Type: "shard", SchemaVersion: SchemaVersion, Study: req.Study, Cell: req.Cell,
			Shard: req.Range.Lo + i, State: &states[i],
		}
		if err := enc.Encode(&line); err != nil {
			return err
		}
	}
	r := req.Range
	return enc.Encode(&ShardEvent{
		Type: "shard_summary", SchemaVersion: SchemaVersion, Study: req.Study, Cell: req.Cell,
		Range: &r, Shards: len(states),
	})
}

// Run executes one shard-range sub-job and writes its NDJSON stream to w:
// one "shard" line per shard in ascending order, then the "shard_summary".
// Request validation errors are returned before any byte is written, so the
// HTTP layer can still answer 400; a mid-stream failure leaves the stream
// truncated, which clients detect by the missing summary.
func (e *ShardExecutor) Run(ctx context.Context, req ShardRequest, w io.Writer) error {
	scale, err := req.Scale.testbedScale()
	if err != nil {
		return err
	}
	expSeed := core.DeriveSeed(req.Seed, req.Study) // the batch runner's per-experiment derivation
	cfg, cellCount, ok := experiments.CanonicalConfig(req.Study, expSeed, req.Cell)
	if cellCount == 0 {
		return unknownStudy(req.Study)
	}
	if !ok {
		return fmt.Errorf("qoe: cell %d out of range for %s (%d cells)", req.Cell, req.Study, cellCount)
	}
	ent := e.testbed(scale, req.Scale, req.Seed)

	// Every state is computed before the first byte is written: a
	// validation error (bad range) must become an HTTP error, not a
	// truncated 200.
	switch req.Study {
	case StudyPopAB:
		cells, err := shardGrid(e, ent, req.Study, experiments.PopABCells)
		if err != nil {
			return err
		}
		states, err := population.RunABRange(ctx, cells, cfg, req.Range)
		if err != nil {
			return err
		}
		return writeShardStream(w, req, states)
	case StudyPopRating:
		cells, err := shardGrid(e, ent, req.Study, experiments.PopRatingCells)
		if err != nil {
			return err
		}
		states, err := population.RunRatingRange(ctx, cells, cfg, req.Range)
		if err != nil {
			return err
		}
		return writeShardStream(w, req, states)
	case StudyPopSweepAdaptive:
		// One round grant of one sweep cell. The cell's config is the
		// canonical derivation from (master seed, cell) — the same one the
		// coordinator's allocator granted against — so shard i's state is
		// byte-identical to the in-process engine's, and the coordinator's
		// accumulator fold cannot tell the difference.
		specs, err := shardGrid(e, ent, req.Study, func(tb *core.Testbed) ([]adaptive.CellSpec, error) {
			return experiments.PopSweepAdaptiveSpecs(ctx, tb, expSeed)
		})
		if err != nil {
			return err
		}
		states, err := population.RunABRange(ctx, specs[req.Cell].Cells, cfg, req.Range)
		if err != nil {
			return err
		}
		return writeShardStream(w, req, states)
	}
	return unknownStudy(req.Study)
}
