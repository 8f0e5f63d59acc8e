package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachRunsEveryIndexOnce: with nothing failing, every index runs
// exactly once, worker stays below the clamped worker count, and the result
// is nil — including n = 0, where fn never runs.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		clamped    int
	}{
		{"empty", 0, 4, 0},
		{"empty default", 0, 0, 0},
		{"inline", 9, 1, 1},
		{"one index", 1, 8, 1},
		{"pool", 100, 3, 3},
		{"more workers than indices", 3, 10, 3},
		{"default workers", 50, 0, min(DefaultParallelism(), 50)},
		{"negative workers", 50, -2, min(DefaultParallelism(), 50)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			var badWorker atomic.Int64
			badWorker.Store(-1)
			err := ForEach(context.Background(), tc.n, tc.workers, func(_ context.Context, i, w int) error {
				runs[i].Add(1)
				if w < 0 || w >= tc.clamped {
					badWorker.Store(int64(w))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("ForEach = %v, want nil", err)
			}
			if w := badWorker.Load(); w >= 0 {
				t.Fatalf("worker %d outside [0, %d)", w, tc.clamped)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, got)
				}
			}
		})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEach(canceled, 0, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("n = 0 on a cancelled ctx: ForEach = %v, want context.Canceled", err)
	}
}

// TestForEachInline: one worker runs fn on the caller's goroutine, in index
// order, without starting a goroutine or allocating.
func TestForEachInline(t *testing.T) {
	base := runtime.NumGoroutine()
	var order []int
	err := ForEach(context.Background(), 6, 1, func(_ context.Context, i, w int) error {
		if g := runtime.NumGoroutine(); g != base {
			t.Errorf("index %d: %d goroutines, want %d", i, g, base)
		}
		if w != 0 {
			t.Errorf("index %d ran on worker %d, want 0", i, w)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
	noop := func(context.Context, int, int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = ForEach(context.Background(), 64, 1, noop) }); allocs != 0 {
		t.Fatalf("inline ForEach allocates %v per call, want 0", allocs)
	}
}

// TestForEachBoundsInFlight: no more than workers calls run at once, and no
// two concurrent calls share a worker index.
func TestForEachBoundsInFlight(t *testing.T) {
	const n, workers = 60, 3
	var (
		mu             sync.Mutex
		inFlight, peak int
		busy           [workers]bool
	)
	err := ForEach(context.Background(), n, workers, func(_ context.Context, i, w int) error {
		mu.Lock()
		if busy[w] {
			t.Errorf("index %d: worker %d already busy", i, w)
		}
		busy[w] = true
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		mu.Lock()
		busy[w] = false
		inFlight--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("%d calls in flight, want at most %d", peak, workers)
	}
}

// TestForEachFirstError: the first error is returned — not the cancellation
// errors it provokes in the calls still in flight — and no index starts
// after it. Indices past the failing one block until cancelled, and the
// failing call waits until every other worker is blocked on one, so exactly
// workers-1 of them start and each returns a provoked error.
func TestForEachFirstError(t *testing.T) {
	const n, failAt = 100, 10
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var late atomic.Int32
		err := ForEach(context.Background(), n, workers, func(ctx context.Context, i, _ int) error {
			switch {
			case i < failAt:
				return nil
			case i == failAt:
				for late.Load() < int32(workers-1) {
					runtime.Gosched()
				}
				return errBoom
			}
			late.Add(1)
			<-ctx.Done()
			return ctx.Err()
		})
		if err != errBoom {
			t.Fatalf("workers=%d: ForEach = %v, want %v", workers, err, errBoom)
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Fatalf("workers=%d: %d indices past the failure started, want at most %d", workers, got, workers-1)
		}
	}
}

// TestForEachCanceled: caller cancellation yields ctx.Err() even when every
// call returns nil, and indices not started by then never run: the
// cancelling call waits until every other worker is blocked on a later
// index, so exactly workers-1 later indices start. An already-cancelled ctx
// runs nothing.
func TestForEachCanceled(t *testing.T) {
	const n, cancelAt = 100, 10
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var late atomic.Int32
		err := ForEach(ctx, n, workers, func(ctx context.Context, i, _ int) error {
			switch {
			case i == cancelAt:
				for late.Load() < int32(workers-1) {
					runtime.Gosched()
				}
				cancel()
			case i > cancelAt:
				late.Add(1)
				<-ctx.Done()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: ForEach = %v, want context.Canceled", workers, err)
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Fatalf("workers=%d: %d indices past the cancellation started, want at most %d", workers, got, workers-1)
		}

		expired, stop := context.WithDeadline(context.Background(), time.Unix(0, 0))
		var ran atomic.Bool
		err = ForEach(expired, n, workers, func(context.Context, int, int) error { ran.Store(true); return nil })
		stop()
		if !errors.Is(err, context.DeadlineExceeded) || ran.Load() {
			t.Fatalf("workers=%d, expired ctx: ForEach = %v, ran = %v; want DeadlineExceeded and nothing run", workers, err, ran.Load())
		}
	}
}
