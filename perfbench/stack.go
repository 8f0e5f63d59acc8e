package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

// env is the per-run state shared by reference, set-up and phases.
type env struct {
	tmp  string       // scratch directory for spill stores
	http *http.Client // the client side of every connection
}

// newHTTPClient returns the benchmark's client: keep-alive connections
// without a global timeout (a cold study streams for seconds), and bodies
// teed into a buffer when the request context asks for the raw bytes.
func newHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	tr.DisableCompression = true
	return &http.Client{Transport: teeTransport{tr}}
}

type captureKey struct{}

// withCapture returns a context under which the response body of a request
// is copied into buf as it is read: the raw served bytes, with the client
// code path unchanged.
func withCapture(ctx context.Context, buf *bytes.Buffer) context.Context {
	return context.WithValue(ctx, captureKey{}, buf)
}

type teeTransport struct{ base http.RoundTripper }

func (t teeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if buf, ok := r.Context().Value(captureKey{}).(*bytes.Buffer); ok && err == nil {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(resp.Body, buf), resp.Body}
	}
	return resp, err
}

// server is one in-process qoed daemon served over loopback.
type server struct {
	name   string
	srv    *qoed.Server
	hs     *httptest.Server
	client *qoe.Client
}

// start boots a qoed with cfg; traced servers get their own tracer, sized
// so no span of a run is dropped.
func (e *env) start(name string, cfg qoed.Config, traced bool) (*server, error) {
	if traced {
		cfg.Tracer = qoed.NewTracer(qoed.TracerConfig{MaxTraces: 4096, MaxSpans: 1 << 16})
	}
	srv, err := qoed.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s server: %w", name, err)
	}
	hs := httptest.NewServer(srv)
	return &server{name: name, srv: srv, hs: hs, client: qoe.NewClient(hs.URL, e.http)}, nil
}

func (s *server) close() {
	s.hs.Close()
	s.srv.Close()
}

// storeDir makes a fresh spill-store directory under the run's scratch dir.
func (e *env) storeDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// waitMetrics polls the server's /metrics until ok accepts them: the
// publish window means a stream's summary line reaches the client before
// the spill-store write lands, so set-up waits on the counter rather than
// sleeping a guessed interval.
func (s *server) waitMetrics(ctx context.Context, what string, ok func(qoe.DaemonMetrics) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.client.Metrics(ctx)
		if err != nil {
			return err
		}
		if ok(m) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s server: timed out waiting for %s", s.name, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// span is one qoed trace span as served at /debug/trace/{id}.
type span struct {
	Server  string `json:"-"`
	TraceID string `json:"trace_id"`
	ID      uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id"`
	Name    string `json:"name"`
	DurNS   int64  `json:"duration_ns"`
}

// traceSpans fetches the spans a traced server recorded under trace id.
func (s *server) traceSpans(ctx context.Context, id string) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+"/debug/trace/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hs.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s server: trace %s: HTTP %d", s.name, id, resp.StatusCode)
	}
	var dump struct {
		Spans []span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return nil, fmt.Errorf("%s server: decoding trace %s: %w", s.name, id, err)
	}
	for i := range dump.Spans {
		dump.Spans[i].Server = s.name
	}
	return dump.Spans, nil
}

// runID is the canonical run ID (and trace ID) of a one-shot run tuple.
func runID(experiment string, seed int64) (string, error) {
	spec, err := qoed.Canonicalize([]string{experiment}, nil, string(qoe.ScaleQuick), seed)
	if err != nil {
		return "", err
	}
	return spec.ID(), nil
}

// countingSink counts the row events of a decoded stream.
type countingSink struct{ rows int }

func (c *countingSink) Row(qoe.RowEvent) error           { c.rows++; return nil }
func (c *countingSink) Progress(qoe.ProgressEvent) error { return nil }
func (c *countingSink) Summary(qoe.SummaryEvent) error   { return nil }

// seedAt derives the i-th seed of a named request sequence from the
// workload seed (splitmix64), kept positive so it round-trips every API.
func seedAt(seed int64, stream string, i int) int64 {
	x := uint64(seed)
	for _, c := range stream {
		x = x*31 + uint64(c)
	}
	x += uint64(i+1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>33) + 1
}
