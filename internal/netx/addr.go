// Package netx provides compact IPv4 address and prefix types together with
// the data structures the spoofing classifier is built on: a flat-array
// longest-prefix-match table (FlatLPM), immutable address interval sets with
// /24-equivalent accounting, and dense bitsets.
//
// Addresses are represented as host-order uint32 scalars (Addr) so that the
// hot classification path never allocates. Conversions to and from the
// standard library's net and netip types are provided at the edges.
package netx

import (
	"fmt"
	"net/netip"
)

// Addr is an IPv4 address as a host-order 32-bit scalar.
// The zero value is 0.0.0.0.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromNetip converts a netip.Addr. It reports ok=false for non-IPv4
// addresses (including IPv4-mapped IPv6, which is unmapped first).
func AddrFromNetip(ip netip.Addr) (Addr, bool) {
	ip = ip.Unmap()
	if !ip.Is4() {
		return 0, false
	}
	b := ip.As4()
	return AddrFrom4(b[0], b[1], b[2], b[3]), true
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return 0, err
	}
	a, ok := AddrFromNetip(ip)
	if !ok {
		return 0, fmt.Errorf("netx: %q is not an IPv4 address", s)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Netip converts back to a netip.Addr.
func (a Addr) Netip() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// Octets returns the four dotted-quad octets.
func (a Addr) Octets() (o0, o1, o2, o3 byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// Slash8 returns the address's /8 bin index (its first octet).
func (a Addr) Slash8() int { return int(a >> 24) }

// Slash24 returns the index of the /24 block containing a.
func (a Addr) Slash24() uint32 { return uint32(a) >> 8 }

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 CIDR prefix. Addr holds the network address with host
// bits zeroed; Bits is the prefix length in [0,32].
type Prefix struct {
	Addr Addr
	Bits uint8
}

// PrefixFrom masks addr to bits host-zeroed and returns the prefix.
// It panics if bits > 32.
func PrefixFrom(addr Addr, bits uint8) Prefix {
	if bits > 32 {
		panic(fmt.Sprintf("netx: invalid prefix length %d", bits))
	}
	return Prefix{Addr: addr & Addr(maskOf(bits)), Bits: bits}
}

// ParsePrefix parses CIDR notation such as "192.0.2.0/24". Host bits are
// zeroed, matching the behaviour of router configuration rather than
// netip.ParsePrefix (which rejects set host bits).
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, err
	}
	a, ok := AddrFromNetip(p.Addr())
	if !ok {
		return Prefix{}, fmt.Errorf("netx: %q is not an IPv4 prefix", s)
	}
	return PrefixFrom(a, uint8(p.Bits())), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maskOf returns the netmask for a prefix length as a uint32.
func maskOf(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// Mask returns the prefix's netmask.
func (p Prefix) Mask() uint32 { return maskOf(p.Bits) }

// Contains reports whether the prefix covers addr.
func (p Prefix) Contains(a Addr) bool {
	return uint32(a)&p.Mask() == uint32(p.Addr)
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Bits <= q.Bits {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// First returns the lowest address in the prefix (the network address).
func (p Prefix) First() Addr { return p.Addr }

// Last returns the highest address in the prefix (the broadcast address).
func (p Prefix) Last() Addr { return Addr(uint32(p.Addr) | ^p.Mask()) }

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - p.Bits) }

// Slash24Equivalents returns the prefix's size in /24 equivalents.
// Prefixes longer than /24 count fractionally toward zero and are reported
// as 0 here; use NumAddrs for exact accounting.
func (p Prefix) Slash24Equivalents() uint64 {
	if p.Bits > 24 {
		return 0
	}
	return 1 << (24 - p.Bits)
}

// IsValid reports whether the prefix is well formed (host bits zero,
// length in range).
func (p Prefix) IsValid() bool {
	return p.Bits <= 32 && uint32(p.Addr)&^p.Mask() == 0
}

func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Compare orders prefixes by network address, then by length (shorter first).
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Addr < q.Addr:
		return -1
	case p.Addr > q.Addr:
		return 1
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	}
	return 0
}
