// Package bogon provides the static list of IPv4 address ranges that must
// never appear as source addresses in the inter-domain Internet (the
// "bogon" reference as distributed by Team Cymru and used by operators for
// egress filtering), together with a fast matcher.
//
// The list mirrors the aggregated Team Cymru bogon reference the paper used
// in February 2017: 14 non-overlapping prefixes covering private (RFC 1918),
// shared address space (RFC 6598), loopback, link-local, test networks,
// benchmarking, multicast, and "future use" (class E) ranges — about 218K
// /24 equivalents.
package bogon

import (
	"spoofscope/internal/netx"
)

// Entry is one bogon range and its provenance.
type Entry struct {
	Prefix netx.Prefix
	// Origin names the defining document, e.g. "RFC1918".
	Origin string
}

// Reference returns the aggregated bogon list (14 non-overlapping prefixes).
// The returned slice is freshly allocated and sorted by address.
func Reference() []Entry {
	return []Entry{
		{netx.MustParsePrefix("0.0.0.0/8"), "RFC1122 (this network)"},
		{netx.MustParsePrefix("10.0.0.0/8"), "RFC1918 (private)"},
		{netx.MustParsePrefix("100.64.0.0/10"), "RFC6598 (shared/CGN)"},
		{netx.MustParsePrefix("127.0.0.0/8"), "RFC1122 (loopback)"},
		{netx.MustParsePrefix("169.254.0.0/16"), "RFC3927 (link-local)"},
		{netx.MustParsePrefix("172.16.0.0/12"), "RFC1918 (private)"},
		{netx.MustParsePrefix("192.0.0.0/24"), "RFC6890 (special purpose)"},
		{netx.MustParsePrefix("192.0.2.0/24"), "RFC5737 (TEST-NET-1)"},
		{netx.MustParsePrefix("192.168.0.0/16"), "RFC1918 (private)"},
		{netx.MustParsePrefix("198.18.0.0/15"), "RFC2544 (benchmarking)"},
		{netx.MustParsePrefix("198.51.100.0/24"), "RFC5737 (TEST-NET-2)"},
		{netx.MustParsePrefix("203.0.113.0/24"), "RFC5737 (TEST-NET-3)"},
		{netx.MustParsePrefix("224.0.0.0/4"), "RFC5771 (multicast)"},
		{netx.MustParsePrefix("240.0.0.0/4"), "RFC1112 (future use / class E)"},
	}
}

// Set is a compiled bogon matcher. It is immutable and safe for concurrent
// use. The zero value matches nothing; build one with NewSet.
type Set struct {
	lpm      *netx.FlatLPM
	prefixes []netx.Prefix
	space    netx.IntervalSet
}

// NewSet compiles the given entries. Pass Reference() for the standard list.
func NewSet(entries []Entry) *Set {
	ps := make([]netx.Prefix, len(entries))
	for i, e := range entries {
		ps[i] = e.Prefix
	}
	return &Set{
		lpm:      netx.BuildFlatLPM(ps, nil),
		prefixes: ps,
		space:    netx.IntervalSetOfPrefixes(ps...),
	}
}

// NewReferenceSet compiles the standard Team-Cymru-style list.
func NewReferenceSet() *Set { return NewSet(Reference()) }

// Contains reports whether a falls in a bogon range.
func (s *Set) Contains(a netx.Addr) bool {
	if s.lpm == nil {
		return false
	}
	return s.lpm.Contains(a)
}

// Prefixes returns the compiled prefix list, for callers that re-index the
// set into another matcher shape (the classifier compiles it into a flat
// slab for its hot path).
func (s *Set) Prefixes() []netx.Prefix {
	return append([]netx.Prefix(nil), s.prefixes...)
}

// Space returns the address space covered by the set.
func (s *Set) Space() netx.IntervalSet { return s.space }
