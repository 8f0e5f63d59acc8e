package serve

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/pkg/qoe"
)

// synthProgress is synthStream's first line; the summary follows it.
var synthProgress = strings.TrimSuffix(synthStream, synthSummary)

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestJobHoldsBackLatestWrite: a subscriber sees every write but the latest
// until finish, and finish releases the rest — on failure too, so a dead
// run's partial stream is served whole.
func TestJobHoldsBackLatestWrite(t *testing.T) {
	for _, runErr := range []error{nil, errors.New("run died")} {
		j := newJob("id", "key", RunSpec{}, context.Background(), func() {}, false)
		io.WriteString(j, synthProgress)
		io.WriteString(j, synthSummary)

		chunks := make(chan string, 2)
		done := make(chan error, 1)
		go func() {
			_, err := j.stream(context.Background(), writerFunc(func(p []byte) (int, error) {
				chunks <- string(p)
				return len(p), nil
			}))
			done <- err
		}()
		if got := <-chunks; got != synthProgress {
			t.Fatalf("err=%v: first chunk %q, want only the progress line", runErr, got)
		}
		j.finish(runErr)
		if got := <-chunks; got != synthSummary {
			t.Fatalf("err=%v: chunk after finish %q, want the held-back summary", runErr, got)
		}
		if err := <-done; err != runErr {
			t.Fatalf("stream returned %v, want %v", err, runErr)
		}
	}
}

// TestSummaryReleasedAfterPublish is the completion-order contract: while a
// run that has written its summary is still finishing, subscribers see no
// summary; once a client holds the summary, the run is in the RAM and disk
// tiers and the done index, and a repeat admission is a RAM hit rather than
// a dedup onto the finished job.
func TestSummaryReleasedAfterPublish(t *testing.T) {
	wrote, gate := make(chan struct{}), make(chan struct{})
	fn := func(ctx context.Context, spec RunSpec, w io.Writer) error {
		io.WriteString(w, synthProgress)
		io.WriteString(w, synthSummary)
		close(wrote)
		<-gate
		return nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()}, fn)
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the server's Close, even on failure
	spec := mustSpec(t, 1, "table1")
	id := spec.ID()

	clientErr := make(chan error, 1)
	go func() {
		req := qoe.RunRequest{Experiments: []string{"table1"}, Scale: qoe.ScaleQuick, Seed: 1}
		_, err := qoe.NewClient(ts.URL, nil).Run(context.Background(), req, nil)
		clientErr <- err
	}()
	<-wrote
	j, _, _, _, ok := s.lookup(id)
	if !ok || j == nil {
		t.Fatal("gated run is not live")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen string
	j.stream(ctx, writerFunc(func(p []byte) (int, error) {
		seen = string(p)
		cancel()
		return len(p), nil
	}))
	if seen != synthProgress {
		t.Fatalf("gated run showed %q, want only the progress line", seen)
	}

	release()
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	adm, err := s.admit(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if adm.j != nil {
		adm.j.unsubscribe()
		t.Fatal("repeat admission deduped onto the finished job")
	}
	if adm.tier != s.tiers[0] || string(adm.cached) != synthStream {
		t.Fatalf("repeat admission served %q from %+v, want the stream from RAM", adm.cached, adm.tier)
	}
	if !s.store.Has(id) {
		t.Fatal("run not in the disk tier when its client held the summary")
	}
	if _, ok := s.completedRecord(id); !ok {
		t.Fatal("run not in the done index when its client held the summary")
	}
	if n := s.met.runsDeduped.Value(); n != 0 {
		t.Fatalf("runs_deduped = %d, want 0", n)
	}
}
