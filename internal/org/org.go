// Package org models the CAIDA AS-to-Organization mapping used in §3.2 to
// merge multi-AS organizations: ASes belonging to the same WHOIS
// organization get a full mesh of links so that traffic exchanged between
// them is never considered spoofed, regardless of whether their internal
// peerings are visible in BGP.
package org

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"spoofscope/internal/bgp"
)

// Org is one organization and the ASes registered to it.
type Org struct {
	ID   string    `json:"id"`   // registry handle, e.g. "ORG-EX1"
	Name string    `json:"name"` // human-readable name
	ASNs []bgp.ASN `json:"asns"`
}

// Dataset is an immutable AS-to-organization mapping.
type Dataset struct {
	orgs []Org
	byAS map[bgp.ASN]int
}

// NewDataset builds a dataset. An AS listed under several organizations is
// attributed to the first; organizations are kept in input order.
func NewDataset(orgs []Org) *Dataset {
	d := &Dataset{orgs: make([]Org, len(orgs)), byAS: make(map[bgp.ASN]int)}
	for i, o := range orgs {
		cp := o
		cp.ASNs = append([]bgp.ASN(nil), o.ASNs...)
		sort.Slice(cp.ASNs, func(a, b int) bool { return cp.ASNs[a] < cp.ASNs[b] })
		d.orgs[i] = cp
		for _, as := range cp.ASNs {
			if _, dup := d.byAS[as]; !dup {
				d.byAS[as] = i
			}
		}
	}
	return d
}

// Len returns the number of organizations.
func (d *Dataset) Len() int { return len(d.orgs) }

// Orgs returns all organizations. The slice must not be modified.
func (d *Dataset) Orgs() []Org { return d.orgs }

// OrgOf returns the organization an AS belongs to.
func (d *Dataset) OrgOf(as bgp.ASN) (Org, bool) {
	i, ok := d.byAS[as]
	if !ok {
		return Org{}, false
	}
	return d.orgs[i], true
}

// MultiASGroups returns the AS sets of every organization owning more than
// one AS — the groups that get full-mesh links in the cone computations.
func (d *Dataset) MultiASGroups() [][]bgp.ASN {
	var out [][]bgp.ASN
	for _, o := range d.orgs {
		if len(o.ASNs) > 1 {
			out = append(out, append([]bgp.ASN(nil), o.ASNs...))
		}
	}
	return out
}

// Save serializes the dataset as JSON.
func (d *Dataset) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.orgs)
}

// Read parses a dataset serialized by Save.
func Read(r io.Reader) (*Dataset, error) {
	var orgs []Org
	if err := json.NewDecoder(r).Decode(&orgs); err != nil {
		return nil, fmt.Errorf("org: decoding dataset: %w", err)
	}
	return NewDataset(orgs), nil
}
