package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// Structured logging for the fleet. cmd/qoed builds one slog.Logger from
// -log-level/-log-format and hands it down through the serve and fabric
// configs (and from serve into the spill store); *slog.Logger is the only
// logging seam.

// NewLogger builds a logger writing to w. level is one of debug, info, warn,
// error (default info); format is text or json (default text).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("telemetry: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text|json)", format)
	}
}

// Discard is a logger that drops every record — the default for library
// configs whose caller provided no Logger.
var Discard = slog.New(slog.DiscardHandler)

// OnceMap suppresses repeat log events for the same key (worker health flaps
// would otherwise spam one line per retry attempt). First returns true only
// the first time key is seen since the last Reset(key).
type OnceMap struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// NewOnceMap tracks level-triggered log events by key.
func NewOnceMap() *OnceMap { return &OnceMap{seen: map[string]struct{}{}} }

// First reports whether key is newly set (true exactly once until Reset).
func (o *OnceMap) First(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.seen[key]; ok {
		return false
	}
	o.seen[key] = struct{}{}
	return true
}

// Reset clears key so the next First(key) fires again.
func (o *OnceMap) Reset(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.seen, key)
}
