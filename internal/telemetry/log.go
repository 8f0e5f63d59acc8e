package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
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
