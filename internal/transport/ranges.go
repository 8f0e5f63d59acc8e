// Package transport provides the shared reliability machinery underneath
// both protocol models: sequence-range bookkeeping, RTT estimation
// (RFC 6298), sent-packet tracking with delivery-rate sampling, and a
// generic reliable-transfer engine that a Stack's Semantics specialize.
//
// The two specializations differ exactly where the paper says the protocols
// differ (§4.3): TCP delivers one in-order byte stream (a loss blocks
// everything behind it, across all HTTP/2 streams) and reports at most three
// SACK blocks per ACK, while QUIC delivers each stream independently and
// acknowledges arbitrarily many packet-number ranges.
package transport

import "fmt"

// Range is a half-open interval [Start, End) of sequence space.
type Range struct {
	Start, End int64
}

// Len returns the number of units covered by the range.
func (r Range) Len() int64 { return r.End - r.Start }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// RangeSet maintains a sorted, merged set of half-open ranges. It backs both
// receive reassembly (which bytes/packets have arrived) and the sender-side
// SACK scoreboard. Add and Contains binary-search the ranges, and Add keeps
// the covered total up to date.
type RangeSet struct {
	rs      []Range
	covered int64
}

// search returns the index of the first range whose End is at least seq:
// the only range that can hold seq or touch it from below.
func (s *RangeSet) search(seq int64) int {
	lo, hi := 0, len(s.rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.rs[m].End < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Add inserts [start, end) and merges any overlapping or adjacent ranges.
// The set's backing array is mutated in place, so steady-state insertion
// into a warm set allocates nothing.
func (s *RangeSet) Add(start, end int64) {
	if start >= end {
		return
	}
	rs := s.rs
	n := len(rs)
	// lo: first range overlapping or adjacent to [start, end);
	// hi: one past the last such range. Everything in [lo, hi) collapses
	// into the inserted range.
	lo := s.search(start)
	hi := lo
	var merged int64
	for hi < n && rs[hi].Start <= end {
		if rs[hi].Start < start {
			start = rs[hi].Start
		}
		if rs[hi].End > end {
			end = rs[hi].End
		}
		merged += rs[hi].Len()
		hi++
	}
	s.covered += end - start - merged
	if lo == hi {
		// No overlap: open a slot at lo.
		rs = append(rs, Range{})
		copy(rs[lo+1:], rs[lo:])
		rs[lo] = Range{start, end}
		s.rs = rs
		return
	}
	rs[lo] = Range{start, end}
	if hi > lo+1 {
		copy(rs[lo+1:], rs[hi:])
		rs = rs[:n-(hi-lo-1)]
	}
	s.rs = rs
}

// Contains reports whether [start, end) is fully covered.
func (s *RangeSet) Contains(start, end int64) bool {
	i := s.search(start)
	return i < len(s.rs) && s.rs[i].Start <= start && end <= s.rs[i].End
}

// CumulativeFrom returns the end of the contiguous run starting at from, or
// from itself when nothing at from has arrived. For a receive buffer this is
// the next expected sequence number (the TCP cumulative ACK point).
func (s *RangeSet) CumulativeFrom(from int64) int64 {
	for _, r := range s.rs {
		if r.Start <= from && from < r.End {
			return r.End
		}
		if r.Start > from {
			break
		}
	}
	return from
}

// AppendAbove appends to dst up to max ranges lying strictly above seq, most
// recent (the highest) first — the shape of TCP SACK blocks, which report
// the newest holes' edges first and are capped at three blocks by option
// space. dst is normally a reused scratch slice resliced to zero length, so
// hot ack paths avoid a fresh slice per call. With max > 0 the cap applies
// to the total length of dst.
func (s *RangeSet) AppendAbove(dst []Range, seq int64, max int) []Range {
	for i := len(s.rs) - 1; i >= 0 && (max <= 0 || len(dst) < max); i-- {
		r := s.rs[i]
		if r.End <= seq {
			break
		}
		if r.Start < seq {
			r.Start = seq
		}
		if r.Len() > 0 {
			dst = append(dst, r)
		}
	}
	return dst
}

// Last returns the highest range in the set.
func (s *RangeSet) Last() (Range, bool) {
	if len(s.rs) == 0 {
		return Range{}, false
	}
	return s.rs[len(s.rs)-1], true
}

// Covered returns the total units covered by the set.
func (s *RangeSet) Covered() int64 { return s.covered }
