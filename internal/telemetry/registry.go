package telemetry

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Registry is one server's metric set. Each metric is registered once with
// its name, kind and help line, and the same descriptors render the JSON
// view of /metrics (AppendJSON) and its Prometheus text (AppendProm). The
// zero value is ready to use. Registration must finish before the first
// render; a duplicate name, a name outside the Prometheus grammar, or a help
// line that is empty or would need escaping is a programming error and
// panics.
type Registry struct {
	metrics []metric // sorted by name
}

// Kind is a metric's Prometheus type, or KindJSON for a structured value
// only the JSON view carries.
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindJSON    Kind = "json"
)

type metric struct {
	name, help string
	kind       Kind
	counter    *Counter
	read       func() any // gauges (always float64) and JSON values
	sub        *Registry  // a mount: no kind or help of its own
}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(metric{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers a gauge that read computes at render time.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.add(metric{name: name, help: help, kind: KindGauge, read: func() any { return read() }})
}

// Value registers a structured value that read computes at render time. It
// renders with encoding/json, in the JSON view only.
func (r *Registry) Value(name, help string, read func() any) {
	r.add(metric{name: name, help: help, kind: KindJSON, read: read})
}

// Mount nests sub under name: a JSON object in the JSON view, and a name_
// prefix on each of its metrics in the Prometheus view.
func (r *Registry) Mount(name string, sub *Registry) {
	r.add(metric{name: name, sub: sub})
}

func (r *Registry) add(m metric) {
	i, dup := slices.BinarySearchFunc(r.metrics, m.name, func(e metric, name string) int { return strings.Compare(e.name, name) })
	// Help renders verbatim after "# HELP name", so it must need no escapes.
	if dup || !metricName.MatchString(m.name) || m.sub == nil && (m.help == "" || strings.ContainsAny(m.help, "\\\n")) {
		panic(fmt.Sprintf("telemetry: duplicate or malformed metric %q (help %q)", m.name, m.help))
	}
	r.metrics = slices.Insert(r.metrics, i, m)
}

// Each calls fn for every counter, gauge and JSON value in name order. A
// mounted metric is named by its dotted path, such as fabric.studies_reduced.
func (r *Registry) Each(fn func(name string, kind Kind, help string)) {
	for _, m := range r.metrics {
		if m.sub == nil {
			fn(m.name, m.kind, m.help)
			continue
		}
		m.sub.Each(func(name string, kind Kind, help string) { fn(m.name+"."+name, kind, help) })
	}
}

// AppendJSON renders the registry as one JSON object in name order, laid
// out as `{"a": 1, "b": {"c": 2}}`. Gauges render as encoding/json renders
// a float64, so 67108864 never turns into 6.7108864e+07.
func (r *Registry) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, m := range r.metrics {
		if i > 0 {
			b = append(b, ", "...)
		}
		// Names are restricted to the metric grammar: no JSON escapes.
		b = append(b, '"')
		b = append(b, m.name...)
		b = append(b, `": `...)
		switch {
		case m.sub != nil:
			b = m.sub.AppendJSON(b)
		case m.counter != nil:
			b = strconv.AppendInt(b, m.counter.Value(), 10)
		default:
			js, err := json.Marshal(m.read())
			if err != nil {
				js = []byte("null") // NaN or ±Inf: keep the document valid
			}
			b = append(b, js...)
		}
	}
	return append(b, '}')
}

// AppendProm renders the counters and gauges as Prometheus text exposition
// (version 0.0.4): ns_<name> with its # HELP and # TYPE lines, and
// ns_<mount>_<name> for a mounted registry's metrics.
func (r *Registry) AppendProm(b []byte, ns string) []byte {
	for _, m := range r.metrics {
		name := ns + "_" + m.name
		var v float64
		switch {
		case m.sub != nil:
			b = m.sub.AppendProm(b, name)
			continue
		case m.kind == KindJSON:
			continue
		case m.counter != nil:
			v = float64(m.counter.Value())
		default:
			v = m.read().(float64)
		}
		b = appendPromHeader(b, name, m.help, m.kind)
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}
