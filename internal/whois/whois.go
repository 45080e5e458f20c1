// Package whois is the Internet-Routing-Registry substrate of §4.4: an
// RPSL-style database of aut-num, route, and organisation objects built
// from ground truth that the BGP view does not fully expose (hidden
// peerings, tunnel interconnects, organisation contacts). The false
// positive hunt queries it to find missing AS relationships behind
// members whose traffic is dominated by Invalid classifications.
package whois

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"spoofscope/internal/bgp"
	"spoofscope/internal/netx"
)

// AutNum is an RPSL aut-num object.
type AutNum struct {
	ASN     bgp.ASN
	OrgID   string
	Contact string // admin-c handle; shared contacts hint at related orgs
	// Imports and Exports are the ASNs named in import/export policy
	// lines ("import: from AS123 accept ANY").
	Imports []bgp.ASN
	Exports []bgp.ASN
}

// Route is an RPSL route object binding a prefix to its origin.
type Route struct {
	Prefix netx.Prefix
	Origin bgp.ASN
	OrgID  string
}

// Organisation is an RPSL organisation object.
type Organisation struct {
	ID      string
	Name    string
	Contact string
}

// Registry is an in-memory IRR.
type Registry struct {
	autnums map[bgp.ASN]*AutNum
	routes  []Route
	orgs    map[string]*Organisation
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		autnums: make(map[bgp.ASN]*AutNum),
		orgs:    make(map[string]*Organisation),
	}
}

// AddAutNum inserts or replaces an aut-num object.
func (r *Registry) AddAutNum(a AutNum) { cp := a; r.autnums[a.ASN] = &cp }

// AddRoute inserts a route object.
func (r *Registry) AddRoute(rt Route) { r.routes = append(r.routes, rt) }

// AddOrganisation inserts an organisation object.
func (r *Registry) AddOrganisation(o Organisation) { cp := o; r.orgs[o.ID] = &cp }

// AutNum looks up an aut-num.
func (r *Registry) AutNum(asn bgp.ASN) (AutNum, bool) {
	a, ok := r.autnums[asn]
	if !ok {
		return AutNum{}, false
	}
	return *a, true
}

// RoutesByOrigin returns the route objects of an origin AS.
func (r *Registry) RoutesByOrigin(asn bgp.ASN) []Route {
	var out []Route
	for _, rt := range r.routes {
		if rt.Origin == asn {
			out = append(out, rt)
		}
	}
	return out
}

// Evidence describes why two ASes are believed to be related despite the
// BGP view lacking a link.
type Evidence struct {
	Kind   string // "import-export", "same-org", "shared-contact"
	Detail string
}

// MissingLinkEvidence checks the registry for a relationship between two
// ASes: mutual or one-sided import/export policy naming the other AS, a
// common organisation, or organisations sharing a contact handle.
func (r *Registry) MissingLinkEvidence(a, b bgp.ASN) (Evidence, bool) {
	an, aok := r.autnums[a]
	bn, bok := r.autnums[b]
	if aok && bok {
		if containsASN(an.Imports, b) || containsASN(an.Exports, b) ||
			containsASN(bn.Imports, a) || containsASN(bn.Exports, a) {
			return Evidence{
				Kind:   "import-export",
				Detail: fmt.Sprintf("policy lines name %s and %s", a, b),
			}, true
		}
		if an.OrgID != "" && an.OrgID == bn.OrgID {
			return Evidence{Kind: "same-org", Detail: "shared organisation " + an.OrgID}, true
		}
		ao, aook := r.orgs[an.OrgID]
		bo, book := r.orgs[bn.OrgID]
		if aook && book && ao.Contact != "" && ao.Contact == bo.Contact {
			return Evidence{Kind: "shared-contact", Detail: "shared admin-c " + ao.Contact}, true
		}
	}
	return Evidence{}, false
}

func containsASN(xs []bgp.ASN, v bgp.ASN) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// --- RPSL-style serialization ---

// Save writes the registry in a whois-flat-file style: objects separated
// by blank lines, "attribute: value" lines.
func (r *Registry) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var asns []bgp.ASN
	for asn := range r.autnums {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		a := r.autnums[asn]
		fmt.Fprintf(bw, "aut-num: AS%d\n", uint32(a.ASN))
		if a.OrgID != "" {
			fmt.Fprintf(bw, "org: %s\n", a.OrgID)
		}
		if a.Contact != "" {
			fmt.Fprintf(bw, "admin-c: %s\n", a.Contact)
		}
		for _, im := range a.Imports {
			fmt.Fprintf(bw, "import: from AS%d accept ANY\n", uint32(im))
		}
		for _, ex := range a.Exports {
			fmt.Fprintf(bw, "export: to AS%d announce ANY\n", uint32(ex))
		}
		fmt.Fprintln(bw)
	}
	for _, rt := range r.routes {
		fmt.Fprintf(bw, "route: %s\norigin: AS%d\n", rt.Prefix, uint32(rt.Origin))
		if rt.OrgID != "" {
			fmt.Fprintf(bw, "org: %s\n", rt.OrgID)
		}
		fmt.Fprintln(bw)
	}
	var orgIDs []string
	for id := range r.orgs {
		orgIDs = append(orgIDs, id)
	}
	sort.Strings(orgIDs)
	for _, id := range orgIDs {
		o := r.orgs[id]
		fmt.Fprintf(bw, "organisation: %s\norg-name: %s\n", o.ID, o.Name)
		if o.Contact != "" {
			fmt.Fprintf(bw, "admin-c: %s\n", o.Contact)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Parse reads a registry saved by Save (or hand-written in the same
// RPSL-ish dialect). Unknown attributes are ignored.
func Parse(rd io.Reader) (*Registry, error) {
	r := NewRegistry()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var cur map[string][]string
	var order []string
	flush := func() error {
		if cur == nil {
			return nil
		}
		defer func() { cur, order = nil, nil }()
		switch order[0] {
		case "aut-num":
			asn, err := parseASN(cur["aut-num"][0])
			if err != nil {
				return err
			}
			a := AutNum{ASN: asn}
			if v := cur["org"]; len(v) > 0 {
				a.OrgID = v[0]
			}
			if v := cur["admin-c"]; len(v) > 0 {
				a.Contact = v[0]
			}
			for _, line := range cur["import"] {
				if peer, ok := parsePolicyASN(line, "from"); ok {
					a.Imports = append(a.Imports, peer)
				}
			}
			for _, line := range cur["export"] {
				if peer, ok := parsePolicyASN(line, "to"); ok {
					a.Exports = append(a.Exports, peer)
				}
			}
			r.AddAutNum(a)
		case "route":
			p, err := netx.ParsePrefix(cur["route"][0])
			if err != nil {
				return err
			}
			rt := Route{Prefix: p}
			if v := cur["origin"]; len(v) > 0 {
				asn, err := parseASN(v[0])
				if err != nil {
					return err
				}
				rt.Origin = asn
			}
			if v := cur["org"]; len(v) > 0 {
				rt.OrgID = v[0]
			}
			r.AddRoute(rt)
		case "organisation":
			o := Organisation{ID: cur["organisation"][0]}
			if v := cur["org-name"]; len(v) > 0 {
				o.Name = v[0]
			}
			if v := cur["admin-c"]; len(v) > 0 {
				o.Contact = v[0]
			}
			r.AddOrganisation(o)
		}
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if cur == nil {
			cur = make(map[string][]string)
		}
		if _, seen := cur[key]; !seen {
			order = append(order, key)
		}
		cur[key] = append(cur[key], val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return r, nil
}

func parseASN(s string) (bgp.ASN, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "AS")
	var v uint32
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("whois: bad ASN %q", s)
	}
	return bgp.ASN(v), nil
}

// parsePolicyASN extracts the peer ASN from "from AS123 accept ANY" /
// "to AS123 announce ANY".
func parsePolicyASN(line, keyword string) (bgp.ASN, bool) {
	fields := strings.Fields(line)
	for i := 0; i+1 < len(fields); i++ {
		if fields[i] == keyword && strings.HasPrefix(fields[i+1], "AS") {
			asn, err := parseASN(fields[i+1])
			if err == nil {
				return asn, true
			}
		}
	}
	return 0, false
}
