package bgp

// Digest is an order-independent summary of a multiset of hashed items:
// commutative folds (sum, xor) of the per-item FNV-64a hashes plus the item
// count. Two digests compare equal exactly when the underlying multisets
// hashed equal, independent of insertion order.
type Digest struct {
	Sum, Xor, Count uint64
}

func (d *Digest) add(h uint64) {
	d.Sum += h
	d.Xor ^= h
	d.Count++
}

// Fingerprint summarizes a RIB snapshot for epoch-rebuild reuse decisions
// (see core.RebuildPipeline).
//
// Paths digests the multiset of AS paths over the distinct announcements —
// everything the AS graph, the relationship inference, and both cone
// closures depend on (inference votes are tallied per announcement, so path
// multiplicity matters, not just the link set). Anns digests the distinct
// (prefix, path) set, which the prefix-dependent layers (naive index,
// origin table, routed space) additionally depend on. Equal Anns licenses
// reusing every layer of a compiled pipeline; equal Paths alone licenses
// reusing only the graph and the closures.
type Fingerprint struct {
	Paths, Anns Digest
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvU32(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v>>24)) * fnvPrime
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime
	return (h ^ uint64(v&0xff)) * fnvPrime
}

// Fingerprint computes the snapshot fingerprint over the RIB's distinct
// announcements. O(total path length); called once per rebuild.
func (r *RIB) Fingerprint() Fingerprint {
	var f Fingerprint
	anns := r.table()
	for i := range anns {
		a := &anns[i]
		hp := uint64(fnvOffset)
		for _, as := range a.Path {
			hp = fnvU32(hp, uint32(as))
		}
		f.Paths.add(hp)
		ha := fnvU32(hp, uint32(a.Prefix.Addr))
		ha = (ha ^ uint64(a.Prefix.Bits)) * fnvPrime
		f.Anns.add(ha)
	}
	return f
}
