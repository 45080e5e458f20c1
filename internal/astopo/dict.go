package astopo

import "spoofscope/internal/bgp"

// asDict is the graph's ASN → dense index dictionary: a flat open-addressed
// table of a power-of-two size, a multiplicative hash and linear probing,
// kept at most half full. An empty slot holds index -1, so every ASN, AS 0
// included, can be a key. It resolves a path hop in one or two cache lines,
// where a Go map pays its hashing and group probing; the graph's sorted asns
// stay the other direction.
type asDict struct {
	slots []dictSlot
	shift uint // 64 - log2(len(slots)): the hash bits that pick the home slot
	n     int  // keys held
}

type dictSlot struct {
	as  bgp.ASN
	idx int32 // -1 when the slot is empty
}

// minDictBits sizes an empty dictionary: 2^minDictBits slots.
const minDictBits = 6

// dictHash is Fibonacci hashing: the multiplier is 2^64 over the golden
// ratio, so the top bits of the product depend on every bit of the ASN.
func dictHash(as bgp.ASN) uint64 { return uint64(as) * 0x9e3779b97f4a7c15 }

// newASDict returns an empty dictionary with 2^bits slots.
func newASDict(bits uint) asDict {
	d := asDict{slots: make([]dictSlot, 1<<bits), shift: 64 - bits}
	for s := range d.slots {
		d.slots[s].idx = -1
	}
	return d
}

// slot returns the slot that holds as, or the empty slot where it would go.
func (d *asDict) slot(as bgp.ASN) int {
	mask := len(d.slots) - 1
	for s := int(dictHash(as) >> d.shift); ; s = (s + 1) & mask {
		if e := d.slots[s]; e.idx < 0 || e.as == as {
			return s
		}
	}
}

// get returns the index of as, or -1 if absent.
func (d *asDict) get(as bgp.ASN) int32 { return d.slots[d.slot(as)].idx }

// intern returns the index of as, numbering it d.n first if it is new. The
// table doubles before it would pass half full.
func (d *asDict) intern(as bgp.ASN) int32 {
	s := d.slot(as)
	if i := d.slots[s].idx; i >= 0 {
		return i
	}
	if 2*(d.n+1) > len(d.slots) {
		old, n := d.slots, d.n
		*d = newASDict(64 - d.shift + 1)
		for _, e := range old {
			if e.idx >= 0 {
				d.slots[d.slot(e.as)] = e
			}
		}
		d.n = n
		s = d.slot(as)
	}
	d.slots[s] = dictSlot{as: as, idx: int32(d.n)}
	d.n++
	return int32(d.n - 1)
}
