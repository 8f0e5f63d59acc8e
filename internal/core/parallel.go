package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism is the single definition of the "zero means all cores"
// worker default. ForEach resolves an unset worker count through it, so
// every parallel stage shares it; the population engine and the serving
// daemon size their worker state with it, and pkg/qoe's WithParallelism
// option documents it as the session default.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ForEach calls fn once for each index in [0, n) on at most workers
// goroutines. It is the module's one bounded fan-out; its rules are the
// cancellation and error contract every parallel stage inherits:
//
//   - workers <= 0 resolves through DefaultParallelism, and the count is
//     clamped to [1, n];
//   - with one worker, fn runs inline in index order on the caller's
//     goroutine and ForEach starts no goroutine and allocates nothing;
//   - indices are handed out in ascending order, and none is handed out once
//     ctx is cancelled or an fn has failed, so an unstarted index never runs;
//   - the first fn error is recorded before the ctx handed to fn is
//     cancelled, so the failures it provokes in other calls never displace it;
//   - ForEach returns that first error, or else ctx.Err();
//   - worker is in [0, clamped workers), and no two concurrent calls share
//     one, so fn may index per-worker scratch with it.
//
// Calls that are in flight when ForEach stops feeding run to completion
// and observe the cancellation only through their ctx. Output that must not
// depend on scheduling has to be written into per-index slots and folded in
// index order afterwards.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i, worker int) error) error {
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i, 0); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || fctx.Err() != nil {
					return
				}
				if err := fn(fctx, i, w); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
