package core

import "spoofscope/internal/netx"

// Merge folds other into a. Both must have been created with the same
// start and bucket length. Merge never adopts other's containers — every
// map, slice, and bin array is deep-added, and the nodes the receiver lacks
// come from its own allocator — so the caller may Reset and reuse other
// afterwards (a drain worker keeps one private shard across its folds this
// way).
func (a *Aggregator) Merge(other *Aggregator) {
	a.GrandTotal.Flows += other.GrandTotal.Flows
	a.GrandTotal.Packets += other.GrandTotal.Packets
	a.GrandTotal.Bytes += other.GrandTotal.Bytes
	a.UnknownPorts += other.UnknownPorts
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		a.Total[c].Flows += other.Total[c].Flows
		a.Total[c].Packets += other.Total[c].Packets
		a.Total[c].Bytes += other.Total[c].Bytes
	}
	for port, om := range other.members {
		ms := a.members[port]
		if ms == nil {
			ms = a.nodes.newMember(om.Port, len(om.InvalidOrigins))
			ms.ASN = om.ASN
			a.members[port] = ms
		}
		ms.Total.Flows += om.Total.Flows
		ms.Total.Packets += om.Total.Packets
		ms.Total.Bytes += om.Total.Bytes
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			ms.ByClass[c].Flows += om.ByClass[c].Flows
			ms.ByClass[c].Packets += om.ByClass[c].Packets
			ms.ByClass[c].Bytes += om.ByClass[c].Bytes
		}
		ms.RouterIPInvalid += om.RouterIPInvalid
		for o, pkts := range om.InvalidOrigins {
			ms.InvalidOrigins[o] += pkts
		}
	}
	for c, os := range other.Series {
		if len(os) == 0 {
			continue
		}
		s := a.Series[c]
		if s == nil {
			s = a.nodes.newSeries(TrafficClass(c))
		}
		for len(s) < len(os) {
			s = append(s, 0)
		}
		for i, v := range os {
			s[i] += v
		}
		a.Series[c] = s
	}
	a.SizeHist.MergeFrom(other.SizeHist)
	a.Ports.MergeFrom(other.Ports)
	mergeSlash8 := func(dst, src *[numTrafficClasses]*[256]uint64) {
		for c, ob := range src {
			if ob == nil {
				continue
			}
			b := dst[c]
			if b == nil {
				b = a.nodes.new8()
				dst[c] = b
			}
			for i, v := range ob {
				b[i] += v
			}
		}
	}
	mergeSlash8(&a.Slash8Src, &other.Slash8Src)
	mergeSlash8(&a.Slash8Dst, &other.Slash8Dst)
	// Both sides track fan-in for the same three classes, so a class other
	// holds destinations of has a map here.
	for c, om := range other.FanIn {
		m := a.FanIn[c]
		for dst, ods := range om {
			ds := m[dst]
			if ds == nil {
				ds = a.nodes.newDst()
				m[dst] = ds
			}
			ds.Packets += ods.Packets
			ds.SrcOverflow += ods.SrcOverflow
			ods.EachSrc(func(src netx.Addr) { ds.addSrc(src, &a.nodes) })
		}
	}
	mergePairs := func(dst, src map[netx.Addr]map[netx.Addr]uint64) {
		for k, om := range src {
			m := dst[k]
			if m == nil {
				m = a.nodes.newPairs(len(om))
				dst[k] = m
			}
			for kk, v := range om {
				m[kk] += v
			}
		}
	}
	mergePairs(a.TriggerPairs, other.TriggerPairs)
	mergePairs(a.ResponsePairs, other.ResponsePairs)
	mergeCounterSeries := func(dst *[]Counter, src []Counter) {
		s := *dst
		for len(s) < len(src) {
			s = append(s, Counter{})
		}
		for i, c := range src {
			s[i].Flows += c.Flows
			s[i].Packets += c.Packets
			s[i].Bytes += c.Bytes
		}
		*dst = s
	}
	mergeCounterSeries(&a.TriggerSeries, other.TriggerSeries)
	mergeCounterSeries(&a.ResponseSeries, other.ResponseSeries)
}
