// Package testlog routes structured logs into a test's own log, so a
// failing test prints the serving layers' events next to its assertions.
package testlog

import (
	"log/slog"
	"strings"
	"testing"
)

// New returns a text-format logger whose records go to t.Log.
func New(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(writer{t}, nil))
}

type writer struct{ t testing.TB }

func (w writer) Write(p []byte) (int, error) {
	w.t.Helper()
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
