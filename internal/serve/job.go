package serve

import (
	"bytes"
	"context"
	"io"
	"sync"
	"time"
)

// jobState is a job's position in its lifecycle.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	default:
		return "done"
	}
}

// job is one in-flight (or just-finished) deterministic run and the
// broadcast buffer its simulation streams into. All concurrent requests for
// the same canonical tuple share one job: the worker appends NDJSON bytes as
// the session emits them, and each subscriber replays the buffer from its
// own offset, so every subscriber — whether it attached before the first
// byte or mid-run — observes the identical byte stream.
//
// The buffer is append-only, which is what makes lock-light broadcast safe:
// a subscriber snapshots a prefix of buf under the mutex and writes it to its
// client outside the lock; a concurrent append may grow (and reallocate) the
// slice, but the snapshot's backing array is never mutated.
//
// The latest Write is held back from subscribers until finish. A run's last
// write carries its summary line, so no client — qoe.Client stops reading at
// the summary — learns a run is complete before the server has published it
// to the finished tiers and retired it from the live table.
type job struct {
	id   string
	key  string
	spec RunSpec

	// Trace plumbing, set once at admission before the job is enqueued (and
	// never written after, so workers read it without the job mutex):
	// traceID is the trace the job's spans record under — the run's own ID,
	// or the coordinator's trace propagated on the shard wire; traceParent
	// is the remote span the root span parents to (0 for local roots);
	// enqueued anchors the retroactive queue_wait span.
	traceID     string
	traceParent uint64
	enqueued    time.Time

	// runCtx governs the job's simulation; it descends from the server's
	// base context, so a server drain deadline aborts every in-flight run.
	runCtx context.Context
	// cancel aborts runCtx. For ephemeral jobs (one-shot GET /v1/run with no
	// surviving subscribers) it fires as soon as the last subscriber
	// detaches, so a run nobody is listening to stops simulating promptly
	// instead of completing for an absent audience.
	cancel context.CancelFunc

	mu         sync.Mutex
	wake       *sync.Cond // broadcast on append, finish, and subscriber ctx expiry
	buf        []byte
	held       int // length of the latest Write, withheld until finish
	state      jobState
	err        error
	subs       int  // attached subscribers
	ephemeral  bool // cancel when the last subscriber detaches before done
	abandoned  bool // the last-subscriber cancellation fired; no new attaches
	peerFilled bool // resolved by a peer fill, not a simulation
}

// newJob creates a job carrying its creator's subscription (subs starts at
// 1): admission and attachment are one atomic act, so there is never a
// window in which a freshly created ephemeral job has zero subscribers.
// id and key must be spec's canonical identity (admit already has both in
// hand, so the tuple isn't formatted and hashed a second time here).
func newJob(id, key string, spec RunSpec, runCtx context.Context, cancel context.CancelFunc, ephemeral bool) *job {
	j := &job{id: id, key: key, spec: spec, runCtx: runCtx, cancel: cancel, ephemeral: ephemeral, subs: 1}
	j.wake = sync.NewCond(&j.mu)
	return j
}

// Write appends one chunk of the run's NDJSON stream, releases the chunk
// before it to subscribers and wakes them. It is the io.Writer behind the
// worker's qoe.StreamSink.
func (j *job) Write(p []byte) (int, error) {
	j.mu.Lock()
	j.buf = append(j.buf, p...)
	j.held = len(p)
	j.mu.Unlock()
	j.wake.Broadcast()
	return len(p), nil
}

// start marks the job running (a worker picked it up).
func (j *job) start() {
	j.mu.Lock()
	j.state = jobRunning
	j.mu.Unlock()
	j.wake.Broadcast()
}

// finish seals the job and releases every byte to subscribers, the held-back
// latest write included — on failure too, so a dead run's partial stream is
// served whole.
func (j *job) finish(err error) {
	j.mu.Lock()
	j.state = jobDone
	j.err = err
	j.held = 0
	j.mu.Unlock()
	j.wake.Broadcast()
}

// bytes returns the job's buffer. Once the producer has returned it is the
// complete stream, which the completion path publishes before finish.
func (j *job) bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf
}

// tombstoneBufCap bounds how much of a failed run's partial stream a
// tombstone retains: enough head to diagnose how far the run got, small
// enough that the bounded tombstone table stays a few MiB worst-case
// (failedRetention × this) rather than pinning full multi-MiB buffers.
const tombstoneBufCap = 64 << 10

// tombstone derives the sealed, memory-bounded record of a failed job that
// the server's failed table retains: same identity and error, but holding
// at most tombstoneBufCap bytes of the partial stream (trimmed to the last
// complete line, so the retained prefix still parses as NDJSON before the
// truncation point). The original job — and the possibly large buffer its
// still-attached subscribers are draining — becomes collectable as soon as
// those subscribers finish.
func (j *job) tombstone() *job {
	j.mu.Lock()
	buf := j.buf
	if len(buf) > tombstoneBufCap {
		buf = buf[:tombstoneBufCap]
		if nl := bytes.LastIndexByte(buf, '\n'); nl >= 0 {
			buf = buf[:nl+1]
		}
	}
	t := &job{id: j.id, key: j.key, spec: j.spec, state: jobDone, err: j.err, buf: append([]byte(nil), buf...)}
	j.mu.Unlock()
	t.wake = sync.NewCond(&t.mu)
	return t
}

// markPeerFilled tags the job as resolved by a peer fill, so the latency
// histogram files the request under "peer" rather than "cold".
func (j *job) markPeerFilled() {
	j.mu.Lock()
	j.peerFilled = true
	j.mu.Unlock()
}

// wasPeerFilled reads the peer-fill tag.
func (j *job) wasPeerFilled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.peerFilled
}

// status reports the job's current lifecycle position under the lock.
func (j *job) status() (state jobState, bytes int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, len(j.buf), j.err
}

// attach tries to add one subscriber, atomically with the abandon decision:
// it fails exactly when the job is already abandoned (its last subscriber
// left and cancelled the run) or finished with an error — a new request
// must not be glued to a doomed run it could instead restart. promote
// clears the ephemeral flag: a durable request (POST /v1/runs) deduplicated
// onto an ephemeral job keeps the job alive even if every streamer
// disconnects.
func (j *job) attach(promote bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.abandoned || (j.state == jobDone && j.err != nil) {
		return false
	}
	j.subs++
	if promote {
		j.ephemeral = false
	}
	return true
}

// unsubscribe detaches one reader. When the last reader leaves an ephemeral
// job that has not finished, the job's run context is cancelled — the
// admission slot is worth reclaiming for work someone is still waiting on.
// The abandon decision is made under the same lock attach uses, so a
// concurrent attach either lands before it (keeping the job alive) or
// observes the abandonment and fails.
func (j *job) unsubscribe() {
	j.mu.Lock()
	j.subs--
	abandon := j.ephemeral && j.subs == 0 && j.state != jobDone && !j.abandoned
	if abandon {
		j.abandoned = true
	}
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// stream copies the job's byte stream to w from offset 0, following the
// buffer as it grows and returning once the job is done and fully flushed
// (returning the job's terminal error, if any) or once ctx is cancelled
// (returning ctx.Err()). If w implements flusher each chunk is flushed
// through, so HTTP clients observe events as the simulation emits them. The
// number of bytes written is always returned, including on error paths.
func (j *job) stream(ctx context.Context, w io.Writer) (int64, error) {
	// cond.Wait cannot watch a context, so expiry must convert into a
	// broadcast for the loop to notice promptly. The broadcast happens under
	// j.mu: ctx.Err() flips outside the lock, so a bare Broadcast could fire
	// in the window where the loop has checked ctx.Err() but not yet entered
	// Wait — a lost wakeup that would leave this goroutine sleeping until the
	// next append. Taking the mutex orders the broadcast after Wait releases
	// it, exactly like every other producer (Write/start/finish).
	stopWake := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.wake.Broadcast()
		j.mu.Unlock()
	})
	defer stopWake()

	fl, _ := w.(flusher)
	var written int64
	off := 0
	for {
		j.mu.Lock()
		for off == len(j.buf)-j.held && j.state != jobDone && ctx.Err() == nil {
			j.wake.Wait()
		}
		end := len(j.buf) - j.held
		chunk := j.buf[off:end:end]
		state, jerr := j.state, j.err
		j.mu.Unlock()

		if err := ctx.Err(); err != nil {
			return written, err
		}
		if len(chunk) > 0 {
			n, err := w.Write(chunk)
			written += int64(n)
			off += n
			if err != nil {
				return written, err
			}
			if fl != nil {
				fl.Flush()
			}
			continue // re-check: more bytes may have landed meanwhile
		}
		if state == jobDone {
			return written, jerr
		}
	}
}

// flusher is the subset of http.Flusher stream needs; declared locally so
// job stays independent of net/http.
type flusher interface{ Flush() }
