package netx

// AddrSet is an immutable open-addressing hash set of addresses, built once
// and queried on the classification hot path. A Go map[Addr]bool pays a
// hashed bucket walk plus interface-free but still multi-load internals per
// lookup; AddrSet is a single power-of-two slot array probed linearly from a
// multiplicative hash — one or two cache lines per query at load factor
// <= 0.5. The zero value contains nothing; build with NewAddrSet.
type AddrSet struct {
	slots   []uint32 // open-addressed; 0 is the empty sentinel
	mask    uint32
	hasZero bool // address 0 stored out of band (0 marks empty slots)
}

// NewAddrSet builds a set holding exactly the given addresses.
func NewAddrSet(addrs []Addr) *AddrSet {
	s := &AddrSet{}
	// Size to the next power of two at or above 2*len so the load factor
	// stays at or below 0.5 and linear probes stay short.
	n := 8
	for n < 2*len(addrs) {
		n <<= 1
	}
	s.slots = make([]uint32, n)
	s.mask = uint32(n - 1)
	for _, a := range addrs {
		v := uint32(a)
		if v == 0 {
			s.hasZero = true
			continue
		}
		i := hashAddr(v) & s.mask
		for s.slots[i] != 0 && s.slots[i] != v {
			i = (i + 1) & s.mask
		}
		s.slots[i] = v
	}
	return s
}

// hashAddr is Knuth's multiplicative hash; the high bits carry the
// mixing, so the slot index uses them via the full 32-bit product folded
// by the power-of-two mask after a spread.
func hashAddr(v uint32) uint32 {
	h := v * 2654435761
	return h ^ (h >> 16)
}

// Contains reports whether a is in the set.
func (s *AddrSet) Contains(a Addr) bool {
	v := uint32(a)
	if v == 0 {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	i := hashAddr(v) & s.mask
	for {
		sl := s.slots[i]
		if sl == v {
			return true
		}
		if sl == 0 {
			return false
		}
		i = (i + 1) & s.mask
	}
}
