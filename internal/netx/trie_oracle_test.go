package netx

// Trie and its frozen form LPM were the module's first prefix index. FlatLPM
// replaced them everywhere; they are kept, test-only, as the independent
// reference TestFlatLPMProperty and FuzzFlatLPM compare FlatLPM against —
// one node per address bit is slow but hard to get wrong.
//
// Trie is a binary radix trie over IPv4 prefixes supporting insert and
// longest-prefix match. Values are 32-bit payloads. Nodes exist only along
// inserted prefixes, one level per bit, so lookups touch at most 32 nodes.
type Trie struct {
	nodes []trieNode // nodes[0] is the root
	size  int
}

type trieNode struct {
	child [2]int32 // index into nodes, 0 means nil (root is never a child)
	value uint32
	set   bool
}

// NewTrie returns an empty trie.
func NewTrie() *Trie {
	return &Trie{nodes: make([]trieNode, 1, 1024)}
}

// Len returns the number of distinct prefixes stored.
func (t *Trie) Len() int { return t.size }

// Insert stores value for prefix, replacing any previous value.
func (t *Trie) Insert(p Prefix, value uint32) {
	cur := int32(0)
	addr := uint32(p.Addr)
	for depth := uint8(0); depth < p.Bits; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := t.nodes[cur].child[bit]
		if next == 0 {
			t.nodes = append(t.nodes, trieNode{})
			next = int32(len(t.nodes) - 1)
			t.nodes[cur].child[bit] = next
		}
		cur = next
	}
	if !t.nodes[cur].set {
		t.size++
	}
	t.nodes[cur].value = value
	t.nodes[cur].set = true
}

// Lookup returns the value of the longest stored prefix covering a.
func (t *Trie) Lookup(a Addr) (value uint32, ok bool) {
	cur := int32(0)
	addr := uint32(a)
	if t.nodes[0].set {
		value, ok = t.nodes[0].value, true
	}
	for depth := 0; depth < 32; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := t.nodes[cur].child[bit]
		if next == 0 {
			break
		}
		cur = next
		if t.nodes[cur].set {
			value, ok = t.nodes[cur].value, true
		}
	}
	return value, ok
}

// LookupPrefix returns the value and the matched prefix itself.
func (t *Trie) LookupPrefix(a Addr) (p Prefix, value uint32, ok bool) {
	cur := int32(0)
	addr := uint32(a)
	if t.nodes[0].set {
		p, value, ok = Prefix{}, t.nodes[0].value, true
	}
	for depth := uint8(0); depth < 32; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := t.nodes[cur].child[bit]
		if next == 0 {
			break
		}
		cur = next
		if t.nodes[cur].set {
			p = PrefixFrom(a, depth+1)
			value = t.nodes[cur].value
			ok = true
		}
	}
	return p, value, ok
}

// Get returns the value stored at exactly prefix p.
func (t *Trie) Get(p Prefix) (value uint32, ok bool) {
	cur := int32(0)
	addr := uint32(p.Addr)
	for depth := uint8(0); depth < p.Bits; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := t.nodes[cur].child[bit]
		if next == 0 {
			return 0, false
		}
		cur = next
	}
	return t.nodes[cur].value, t.nodes[cur].set
}

// Walk visits every stored prefix in address order, shortest-first within a
// shared network address. Returning false from fn stops the walk.
func (t *Trie) Walk(fn func(p Prefix, value uint32) bool) {
	t.walk(0, 0, 0, fn)
}

func (t *Trie) walk(node int32, addr uint32, depth uint8, fn func(Prefix, uint32) bool) bool {
	n := &t.nodes[node]
	if n.set {
		if !fn(Prefix{Addr: Addr(addr), Bits: depth}, n.value) {
			return false
		}
	}
	for bit := uint32(0); bit < 2; bit++ {
		c := n.child[bit]
		if c == 0 {
			continue
		}
		next := addr | bit<<(31-depth)
		if !t.walk(c, next, depth+1, fn) {
			return false
		}
	}
	return true
}

// Freeze converts the trie into an immutable LPM table.
func (t *Trie) Freeze() *LPM {
	nodes := make([]trieNode, len(t.nodes))
	copy(nodes, t.nodes)
	return &LPM{nodes: nodes, size: t.size}
}

// LPM is an immutable longest-prefix-match table produced by Trie.Freeze.
// It is safe for concurrent use.
type LPM struct {
	nodes []trieNode
	size  int
}

// Len returns the number of stored prefixes.
func (l *LPM) Len() int { return l.size }

// Lookup returns the value of the longest stored prefix covering a.
func (l *LPM) Lookup(a Addr) (value uint32, ok bool) {
	cur := int32(0)
	addr := uint32(a)
	if l.nodes[0].set {
		value, ok = l.nodes[0].value, true
	}
	for depth := 0; depth < 32; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := l.nodes[cur].child[bit]
		if next == 0 {
			break
		}
		cur = next
		if l.nodes[cur].set {
			value, ok = l.nodes[cur].value, true
		}
	}
	return value, ok
}

// Contains reports whether any stored prefix covers a.
func (l *LPM) Contains(a Addr) bool {
	_, ok := l.Lookup(a)
	return ok
}

// Matches calls fn for every stored prefix covering a, shortest first,
// with the prefix length and stored value. Returning false stops the walk.
func (l *LPM) Matches(a Addr, fn func(bits uint8, value uint32) bool) {
	cur := int32(0)
	addr := uint32(a)
	if l.nodes[0].set {
		if !fn(0, l.nodes[0].value) {
			return
		}
	}
	for depth := 0; depth < 32; depth++ {
		bit := (addr >> (31 - depth)) & 1
		next := l.nodes[cur].child[bit]
		if next == 0 {
			return
		}
		cur = next
		if l.nodes[cur].set {
			if !fn(uint8(depth+1), l.nodes[cur].value) {
				return
			}
		}
	}
}
