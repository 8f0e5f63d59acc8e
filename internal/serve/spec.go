package serve

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/pkg/qoe"
)

// RunSpec is the canonicalized identity of one deterministic run: the tuple
// the engine guarantees maps to exactly one byte stream. Build one with
// Canonicalize; a hand-built RunSpec has no canonicality guarantee and must
// not be used as a dedup key.
type RunSpec struct {
	// Experiments is the resolved selection, sorted and deduplicated.
	// Sorting is what makes set-equal requests ("table1,table2" vs
	// "table2,table1") collapse onto one job: canonical runs execute in
	// sorted order, and that order is part of the spec's identity.
	Experiments []string
	Scale       qoe.Scale
	Seed        int64
	// Shard, when non-nil, makes this a shard-range sub-job of one canonical
	// population study instead of a full session run: the job streams
	// per-shard aggregate states (the fabric wire format) rather than run
	// events. Seed is the MASTER seed; the worker derives the study seed.
	// Shard sub-jobs ride the same singleflight table, result cache, and
	// admission queue as full runs — a retried shard range replays cached
	// bytes, and a saturated worker sheds shard jobs with the same 429.
	Shard *ShardSpec
}

// ShardSpec identifies the study and shard range of a shard sub-job. Cell
// addresses one grid cell of a multi-cell (adaptive) study and is zero for
// the canonical population runs.
type ShardSpec struct {
	Study string
	Range qoe.ShardRange
	Cell  int
}

// Canonicalize resolves a raw selection into the canonical RunSpec the job
// table and result cache key on. experiments and scenarios are synonyms —
// the SDK's selection option is named WithScenarios, the paper calls the
// selected units experiments — and their union is resolved through the
// registry ("all" expands, unknown names fail with a did-you-mean
// suggestion), then sorted and deduplicated.
func Canonicalize(experiments, scenarios []string, scale string, seed int64) (RunSpec, error) {
	sel := append(append([]string(nil), experiments...), scenarios...)
	resolved, err := qoe.ResolveExperiments(sel...)
	if err != nil {
		return RunSpec{}, err
	}
	sort.Strings(resolved)
	uniq := resolved[:0]
	for i, name := range resolved {
		if i == 0 || name != resolved[i-1] {
			uniq = append(uniq, name)
		}
	}
	sc := qoe.ScaleQuick
	if scale != "" {
		if sc, err = qoe.ParseScale(scale); err != nil {
			return RunSpec{}, err
		}
	}
	return RunSpec{Experiments: uniq, Scale: sc, Seed: seed}, nil
}

// Key is the human-readable canonical tuple. Two requests collapse onto one
// job (and one cache entry) exactly when their Keys are equal. The schema
// version leads the key so a wire-format bump can never replay bytes
// recorded under the old encoding.
func (s RunSpec) Key() string {
	var b strings.Builder
	n := len("v|scale=|seed=|experiments=") + 2 + len(s.Scale) + 20
	for _, e := range s.Experiments {
		n += len(e) + 1
	}
	b.Grow(n)
	b.WriteByte('v')
	b.WriteString(strconv.Itoa(qoe.SchemaVersion))
	b.WriteString("|scale=")
	b.WriteString(string(s.Scale))
	b.WriteString("|seed=")
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], s.Seed, 10))
	b.WriteString("|experiments=")
	for i, e := range s.Experiments {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	if s.Shard != nil {
		b.WriteString("|shard=")
		b.WriteString(s.Shard.Study)
		b.WriteByte(':')
		b.Write(strconv.AppendInt(tmp[:0], int64(s.Shard.Range.Lo), 10))
		b.WriteByte('-')
		b.Write(strconv.AppendInt(tmp[:0], int64(s.Shard.Range.Hi), 10))
		if s.Shard.Cell != 0 {
			// Cell joins the key only when non-zero, so every pre-adaptive
			// key (and the cache entries recorded under it) stays stable.
			b.WriteString(":c")
			b.Write(strconv.AppendInt(tmp[:0], int64(s.Shard.Cell), 10))
		}
	}
	return b.String()
}

// CanonicalizeShard builds the canonical RunSpec of a shard-range sub-job,
// validating the study name, scale, cell, and range bounds against the
// study's canonical cell count and per-cell shard space.
func CanonicalizeShard(study, scale string, seed int64, lo, hi, cell int) (RunSpec, error) {
	cfg, cells, ok := experiments.CanonicalConfig(study, 0, cell)
	if cells == 0 {
		return RunSpec{}, fmt.Errorf("serve: unknown shard study %q", study)
	}
	if !ok {
		return RunSpec{}, fmt.Errorf("serve: cell %d invalid for %d cells of %s", cell, cells, study)
	}
	if total := cfg.Normalize().Shards; lo < 0 || hi <= lo || hi > total {
		return RunSpec{}, fmt.Errorf("serve: shard range [%d,%d) invalid for %d shards of %s", lo, hi, total, study)
	}
	sc := qoe.ScaleQuick
	if scale != "" {
		var err error
		if sc, err = qoe.ParseScale(scale); err != nil {
			return RunSpec{}, err
		}
	}
	return RunSpec{Scale: sc, Seed: seed, Shard: &ShardSpec{Study: study, Range: qoe.ShardRange{Lo: lo, Hi: hi}, Cell: cell}}, nil
}

// ID is the content address derived from Key: 128 bits of its SHA-256, hex
// encoded. It names the run in URLs (/v1/runs/{id}) and addresses the result
// cache, so identical tuples always map to the same ID — across requests,
// restarts, and replicas.
func (s RunSpec) ID() string { return idFromKey(s.Key()) }

// idFromKey hashes an already-built Key, so callers that need both (the
// admission path computes key and id for every request) don't format the
// tuple twice.
func idFromKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	const hexdig = "0123456789abcdef"
	var dst [32]byte
	for i, v := range sum[:16] {
		dst[2*i] = hexdig[v>>4]
		dst[2*i+1] = hexdig[v&0xF]
	}
	return string(dst[:])
}

// parseSeed parses a seed query/body value, defaulting empty to 1 so the
// default tuple matches `qoebench -seed 1`.
func parseSeed(raw string) (int64, error) {
	if raw == "" {
		return 1, nil
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad seed %q: %w", raw, err)
	}
	return seed, nil
}

// splitList splits repeated and comma-separated selection values:
// ?experiments=a,b&experiments=c yields [a b c]. Empty elements vanish.
func splitList(values []string) []string {
	var out []string
	for _, v := range values {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}
