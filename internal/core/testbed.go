package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/video"
	"repro/internal/webpage"
)

// Scale bounds the cost of a full pipeline run. The paper records every
// condition at least 31 times over 36 sites; smaller presets keep tests and
// benchmarks fast while preserving every qualitative shape.
type Scale struct {
	Sites []*webpage.Site
	Reps  int
}

// QuickScale covers the five lab sites with five repetitions — the smallest
// setting that exercises every experiment end to end.
func QuickScale() Scale { return Scale{Sites: webpage.LabCorpus(), Reps: 5} }

// StandardScale covers the full 36-site corpus with seven repetitions.
func StandardScale() Scale { return Scale{Sites: webpage.Corpus(), Reps: 7} }

// PaperScale matches the paper's recording effort: 36 sites, 31 reps.
func PaperScale() Scale { return Scale{Sites: webpage.Corpus(), Reps: 31} }

// CacheStats counts how the recording cache behaved: Records is the number
// of conditions actually simulated, Hits the number of lookups served from
// the cache or by waiting on another goroutine's in-flight recording.
type CacheStats struct {
	Hits    uint64
	Records uint64
}

// inflightCall tracks one in-progress recording so that concurrent cache
// misses for the same condition share a single video.Record run.
type inflightCall struct {
	done chan struct{}
	recs []video.Recording
}

// Testbed records and caches page-load videos for study conditions. It is
// safe for concurrent use: simultaneous requests for the same condition are
// deduplicated (singleflight) so each condition is recorded exactly once per
// testbed lifetime.
type Testbed struct {
	Scale Scale
	Seed  int64

	mu       sync.Mutex
	cache    map[string][]video.Recording
	inflight map[string]*inflightCall
	stats    CacheStats

	// record is video.Record, injectable so tests can count invocations.
	record func(site *webpage.Site, net simnet.NetworkConfig, stack transport.Stack, n int, baseSeed int64) []video.Recording
}

// NewTestbed builds a testbed at the given scale.
func NewTestbed(scale Scale, seed int64) *Testbed {
	return &Testbed{
		Scale:    scale,
		Seed:     seed,
		cache:    make(map[string][]video.Recording),
		inflight: make(map[string]*inflightCall),
		record:   video.Record,
	}
}

func condKey(site, network, protocol string) string {
	return site + "|" + network + "|" + protocol
}

// Recordings returns (recording if needed) all repetitions of a condition.
// Concurrent callers that miss the cache on the same key block on a single
// shared recording run instead of each simulating it.
func (tb *Testbed) Recordings(site *webpage.Site, net simnet.NetworkConfig, protocol string) []video.Recording {
	key := condKey(site.Name, net.Name, protocol)
	tb.mu.Lock()
	if recs, ok := tb.cache[key]; ok {
		tb.stats.Hits++
		tb.mu.Unlock()
		return recs
	}
	if call, ok := tb.inflight[key]; ok {
		tb.stats.Hits++
		tb.mu.Unlock()
		<-call.done
		return call.recs
	}
	call := &inflightCall{done: make(chan struct{})}
	tb.inflight[key] = call
	tb.stats.Records++
	tb.mu.Unlock()

	proto := MustProtocol(protocol, net)
	call.recs = tb.record(site, net, proto, tb.Scale.Reps, DeriveSeed(tb.Seed, key))

	tb.mu.Lock()
	tb.cache[key] = call.recs
	delete(tb.inflight, key)
	tb.mu.Unlock()
	close(call.done)
	return call.recs
}

// Stats returns a snapshot of the cache counters.
func (tb *Testbed) Stats() CacheStats {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.stats
}

// Typical returns the condition's representative video (closest-to-mean-PLT
// rule).
func (tb *Testbed) Typical(site *webpage.Site, net simnet.NetworkConfig, protocol string) (video.Recording, error) {
	rec, err := video.SelectTypical(tb.Recordings(site, net, protocol))
	if err != nil {
		return video.Recording{}, fmt.Errorf("core: condition %s/%s/%s: %w", site.Name, net.Name, protocol, err)
	}
	return rec, nil
}

// Prewarm records every (site × network × protocol) condition in parallel
// through ForEach at the default worker count. Experiments that follow hit
// only the cache.
//
// Cancelling ctx stops the prewarm between conditions and returns ctx.Err():
// recordings already in flight run to completion (a recording is pure CPU
// and keeps the cache consistent), so a cancelled testbed remains fully
// reusable — a later Prewarm or Recordings call picks up where this one
// stopped.
func (tb *Testbed) Prewarm(ctx context.Context, networks []simnet.NetworkConfig, protocols []string) error {
	type job struct {
		site *webpage.Site
		net  simnet.NetworkConfig
		prot string
	}
	var jobs []job
	for _, s := range tb.Scale.Sites {
		for _, n := range networks {
			for _, p := range protocols {
				jobs = append(jobs, job{s, n, p})
			}
		}
	}
	return ForEach(ctx, len(jobs), 0, func(_ context.Context, i, _ int) error {
		tb.Recordings(jobs[i].site, jobs[i].net, jobs[i].prot)
		return nil
	})
}

// DeriveSeed mixes a name into a master seed: FNV-1a over the name XOR the
// master seed. It is the idiom behind both per-condition recording seeds
// (keyed by site|network|protocol) and the runner's per-experiment seeds.
func DeriveSeed(master int64, name string) int64 {
	return master ^ int64(hash(name))
}

// hash is FNV-1a over the condition key for seed derivation.
func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
