package telemetry

import (
	"fmt"
	"math"
	"strconv"
)

// Prometheus text exposition (version 0.0.4) of the pieces that are not
// plain registry counters and gauges. Latency histograms render as summaries
// with quantile labels, which is the honest exposition for interpolated
// quantiles out of a fixed-bin histogram.

// appendPromHeader writes a metric family's # HELP and # TYPE lines.
func appendPromHeader(buf []byte, name, help string, kind Kind) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, help...)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, kind...)
	return append(buf, '\n')
}

// AppendProm renders the latency set as one Prometheus summary per class:
// ns{class="mem",quantile="0.5"} …, plus ns_sum{class=…} and
// ns_count{class=…}. An empty class has no quantiles, so they render as NaN
// (a 0 would read as instant); its _sum and _count stay 0.
func (s *LatencySet) AppendProm(buf []byte, ns string) []byte {
	buf = appendPromHeader(buf, ns, "Latency in seconds by class, quantiles interpolated from a log-domain histogram.", "summary")
	for i, class := range s.classes {
		st := s.hists[i].Snapshot()
		if st.Count == 0 {
			st.P50, st.P90, st.P99 = math.NaN(), math.NaN(), math.NaN()
		}
		for _, q := range [...]struct {
			label string
			val   float64
		}{{"0.5", st.P50}, {"0.9", st.P90}, {"0.99", st.P99}} {
			buf = append(buf, ns...)
			buf = append(buf, `{class="`...)
			buf = append(buf, class...)
			buf = append(buf, `",quantile="`...)
			buf = append(buf, q.label...)
			buf = append(buf, `"} `...)
			buf = strconv.AppendFloat(buf, q.val, 'g', -1, 64)
			buf = append(buf, '\n')
		}
		buf = append(buf, ns...)
		buf = append(buf, `_sum{class="`...)
		buf = append(buf, class...)
		buf = append(buf, `"} `...)
		buf = strconv.AppendFloat(buf, st.SumSeconds, 'g', -1, 64)
		buf = append(buf, '\n')
		buf = append(buf, ns...)
		buf = append(buf, `_count{class="`...)
		buf = append(buf, class...)
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, st.Count, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// AppendPromBuildInfo renders the conventional build-info gauge:
// ns_build_info{version="…",revision="…"} 1.
func AppendPromBuildInfo(buf []byte, ns string, b Build) []byte {
	buf = appendPromHeader(buf, ns+"_build_info", "Build identity of the running binary; the value is always 1.", KindGauge)
	buf = append(buf, ns...)
	buf = append(buf, "_build_info{"...)
	buf = append(buf, fmt.Sprintf("version=%q,revision=%q,go=%q", b.Version, b.Revision, b.GoVersion)...)
	return append(buf, "} 1\n"...)
}
