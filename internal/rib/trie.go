// Package rib provides the routing-table substrate shared by the BGP engine
// and the RPKI validator: a binary trie over IPv4 prefixes supporting exact
// lookup, longest-prefix match, and covering/covered-by traversals.
//
// RoVista's side channel is specific to the IPv4 IP-ID field, so the trie is
// deliberately IPv4-only; IPv6 inputs are rejected loudly rather than
// silently mishandled.
package rib

import (
	"fmt"
	"net/netip"
)

// Trie is a binary prefix trie mapping IPv4 prefixes to values of type V.
// The zero value is not usable; create one with NewTrie.
type Trie[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] {
	return &Trie[V]{root: &node[V]{}}
}

// Len reports the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

func v4Bits(a netip.Addr) (uint32, error) {
	if !a.Is4() {
		return 0, fmt.Errorf("rib: %v is not an IPv4 address", a)
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

func checkPrefix(p netip.Prefix) (uint32, int, error) {
	if !p.IsValid() {
		return 0, 0, fmt.Errorf("rib: invalid prefix %v", p)
	}
	bits, err := v4Bits(p.Addr())
	if err != nil {
		return 0, 0, err
	}
	return bits, p.Bits(), nil
}

// bit returns the i-th most significant bit of v (i in [0, 31]).
func bit(v uint32, i int) int { return int(v>>(31-i)) & 1 }

// Insert stores val under p, replacing any existing value. It returns an
// error for non-IPv4 or invalid prefixes.
func (t *Trie[V]) Insert(p netip.Prefix, val V) error {
	addr, plen, err := checkPrefix(p.Masked())
	if err != nil {
		return err
	}
	n := t.root
	for i := 0; i < plen; i++ {
		b := bit(addr, i)
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = val, true
	return nil
}

// Remove deletes the exact prefix p. It reports whether an entry existed.
func (t *Trie[V]) Remove(p netip.Prefix) bool {
	addr, plen, err := checkPrefix(p.Masked())
	if err != nil {
		return false
	}
	// Track the path so empty branches can be pruned afterwards.
	path := make([]*node[V], 0, plen+1)
	n := t.root
	path = append(path, n)
	for i := 0; i < plen; i++ {
		n = n.child[bit(addr, i)]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	// Prune childless, valueless nodes bottom-up.
	for i := len(path) - 1; i > 0; i-- {
		cur := path[i]
		if cur.set || cur.child[0] != nil || cur.child[1] != nil {
			break
		}
		parent := path[i-1]
		b := bit(addr, i-1)
		parent.child[b] = nil
	}
	return true
}

// Get returns the value stored at exactly p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	addr, plen, err := checkPrefix(p.Masked())
	if err != nil {
		return zero, false
	}
	n := t.root
	for i := 0; i < plen; i++ {
		n = n.child[bit(addr, i)]
		if n == nil {
			return zero, false
		}
	}
	if !n.set {
		return zero, false
	}
	return n.val, true
}

// Lookup performs longest-prefix match for the address and returns the
// matching prefix, its value, and whether any entry matched.
func (t *Trie[V]) Lookup(a netip.Addr) (netip.Prefix, V, bool) {
	var zero V
	addr, err := v4Bits(a)
	if err != nil {
		return netip.Prefix{}, zero, false
	}
	n := t.root
	bestLen := -1
	var bestVal V
	for i := 0; ; i++ {
		if n.set {
			bestLen, bestVal = i, n.val
		}
		if i == 32 {
			break
		}
		n = n.child[bit(addr, i)]
		if n == nil {
			break
		}
	}
	if bestLen < 0 {
		return netip.Prefix{}, zero, false
	}
	p, _ := a.Prefix(bestLen)
	return p, bestVal, true
}

// Covering returns every stored (prefix, value) whose prefix covers p —
// i.e. is equal to or less specific than p. Results are ordered from least
// to most specific.
func (t *Trie[V]) Covering(p netip.Prefix) []Entry[V] {
	var out []Entry[V]
	t.VisitCovering(p, func(bits int, v V) bool {
		cp, _ := p.Addr().Prefix(bits)
		out = append(out, Entry[V]{Prefix: cp, Value: v})
		return true
	})
	return out
}

// VisitCovering calls fn with the length and value of every stored prefix
// covering p, from least to most specific, until fn returns false. It
// walks the covering path in place and allocates nothing.
func (t *Trie[V]) VisitCovering(p netip.Prefix, fn func(bits int, v V) bool) {
	addr, plen, err := checkPrefix(p.Masked())
	if err != nil {
		return
	}
	n := t.root
	for i := 0; ; i++ {
		if n.set && !fn(i, n.val) {
			return
		}
		if i == plen {
			return
		}
		n = n.child[bit(addr, i)]
		if n == nil {
			return
		}
	}
}

// CoveredBy returns every stored (prefix, value) equal to or more specific
// than p, in depth-first order.
func (t *Trie[V]) CoveredBy(p netip.Prefix) []Entry[V] {
	addr, plen, err := checkPrefix(p.Masked())
	if err != nil {
		return nil
	}
	n := t.root
	for i := 0; i < plen; i++ {
		n = n.child[bit(addr, i)]
		if n == nil {
			return nil
		}
	}
	var out []Entry[V]
	collect(n, addr, plen, &out)
	return out
}

func collect[V any](n *node[V], addr uint32, depth int, out *[]Entry[V]) {
	if n.set {
		a := netip.AddrFrom4([4]byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)})
		p, _ := a.Prefix(depth)
		*out = append(*out, Entry[V]{Prefix: p, Value: n.val})
	}
	if depth == 32 {
		return
	}
	if n.child[0] != nil {
		collect(n.child[0], addr, depth+1, out)
	}
	if n.child[1] != nil {
		collect(n.child[1], addr|1<<(31-depth), depth+1, out)
	}
}

// Entry pairs a prefix with its stored value.
type Entry[V any] struct {
	Prefix netip.Prefix
	Value  V
}

// Walk visits every stored entry in depth-first order. Returning false from
// fn stops the walk early.
func (t *Trie[V]) Walk(fn func(netip.Prefix, V) bool) {
	walk(t.root, 0, 0, fn)
}

func walk[V any](n *node[V], addr uint32, depth int, fn func(netip.Prefix, V) bool) bool {
	if n.set {
		a := netip.AddrFrom4([4]byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)})
		p, _ := a.Prefix(depth)
		if !fn(p, n.val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if n.child[0] != nil && !walk(n.child[0], addr, depth+1, fn) {
		return false
	}
	if n.child[1] != nil && !walk(n.child[1], addr|1<<(31-depth), depth+1, fn) {
		return false
	}
	return true
}

// Entries returns all stored entries in depth-first order.
func (t *Trie[V]) Entries() []Entry[V] {
	out := make([]Entry[V], 0, t.size)
	t.Walk(func(p netip.Prefix, v V) bool {
		out = append(out, Entry[V]{Prefix: p, Value: v})
		return true
	})
	return out
}
