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
// (prefix, path) set, which the prefix-dependent layers (origin table,
// routed space, the members' naive rows) additionally depend on. Equal Anns licenses
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

// add digests one more distinct announcement.
func (f *Fingerprint) add(a *Announcement) {
	hp := uint64(fnvOffset)
	for _, as := range a.Path {
		hp = fnvU32(hp, uint32(as))
	}
	f.Paths.add(hp)
	ha := fnvU32(hp, uint32(a.Prefix.Addr))
	ha = (ha ^ uint64(a.Prefix.Bits)) * fnvPrime
	f.Anns.add(ha)
}

// Fingerprint returns the snapshot fingerprint over the RIB's distinct
// announcements. The fold that merges added announcements into the table
// digests each new one as it merges it, so once the table is folded this is
// a field read: O(1) on a RIB read since its last add, and otherwise the
// cost of that first read, which hashes only the announcements it adds.
func (r *RIB) Fingerprint() Fingerprint {
	r.table()
	return r.fp
}
