// Package classifier implements the rule algebra Hermes relies on for its
// correctness guarantees (paper §4): IPv4 prefixes, ternary match rules, an
// overlap-detection trie, prefix subtraction ("EliminateOverlap"), optimal
// sibling merging, and Algorithm 1 (PartitionNewRule) together with the
// original-rule → partition mapping used to un-partition on deletion.
package classifier

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Prefix is an IPv4 prefix: the top Len bits of Addr are significant and the
// remaining bits must be zero (enforced by the constructors). The zero value
// is 0.0.0.0/0, which matches every address.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// NewPrefix masks addr to plen bits and returns the canonical prefix. It
// panics if plen > 32 because that is a programming error, never data.
func NewPrefix(addr uint32, plen uint8) Prefix {
	if plen > 32 {
		panic(fmt.Sprintf("classifier: prefix length %d out of range", plen))
	}
	return Prefix{Addr: addr & maskBits(plen), Len: plen}
}

// ParsePrefix parses dotted-quad "a.b.c.d/len" notation. A missing "/len"
// means a /32 host route.
func ParsePrefix(s string) (Prefix, error) {
	ipPart := s
	plen := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		ipPart = s[:i]
		v, err := strconv.Atoi(s[i+1:])
		if err != nil || v < 0 || v > 32 {
			return Prefix{}, fmt.Errorf("classifier: bad prefix length in %q", s)
		}
		plen = v
	}
	parts := strings.Split(ipPart, ".")
	if len(parts) != 4 {
		return Prefix{}, fmt.Errorf("classifier: bad IPv4 address in %q", s)
	}
	var addr uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return Prefix{}, fmt.Errorf("classifier: bad IPv4 octet in %q", s)
		}
		addr = addr<<8 | uint32(v)
	}
	return NewPrefix(addr, uint8(plen)), nil
}

// MustParsePrefix is ParsePrefix that panics on error; for tests and
// literals.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskBits(plen uint8) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// Mask returns the netmask of the prefix as a uint32.
func (p Prefix) Mask() uint32 { return maskBits(p.Len) }

// String renders dotted-quad/len notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// MatchesAddr reports whether addr falls inside the prefix.
func (p Prefix) MatchesAddr(addr uint32) bool {
	return addr&p.Mask() == p.Addr
}

// Contains reports whether p fully contains q (p ⊇ q). A prefix contains
// itself.
func (p Prefix) Contains(q Prefix) bool {
	return p.Len <= q.Len && q.Addr&p.Mask() == p.Addr
}

// Overlaps reports whether the prefixes share any address. For prefixes this
// is true exactly when one contains the other.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q) || q.Contains(p)
}

// Children returns the two /Len+1 halves of the prefix. It panics on a /32,
// which has no children.
func (p Prefix) Children() (lo, hi Prefix) {
	if p.Len >= 32 {
		panic("classifier: /32 prefix has no children")
	}
	bit := uint32(1) << (31 - p.Len)
	return Prefix{Addr: p.Addr, Len: p.Len + 1},
		Prefix{Addr: p.Addr | bit, Len: p.Len + 1}
}

// Parent returns the /Len-1 prefix covering p. It panics on a /0.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		panic("classifier: /0 prefix has no parent")
	}
	return NewPrefix(p.Addr, p.Len-1)
}

// Sibling returns the other half of p's parent. It panics on a /0.
func (p Prefix) Sibling() Prefix {
	if p.Len == 0 {
		panic("classifier: /0 prefix has no sibling")
	}
	bit := uint32(1) << (32 - p.Len)
	return Prefix{Addr: p.Addr ^ bit, Len: p.Len}
}

// NumAddrs returns the number of addresses covered by the prefix as a
// float64 (a /0 covers 2^32 which overflows uint32).
func (p Prefix) NumAddrs() float64 {
	return float64(uint64(1) << (32 - p.Len))
}

// Subtract returns the set of maximal prefixes covering p minus q. If q does
// not overlap p the result is {p}; if q contains p the result is empty.
// Otherwise q is strictly inside p and the result is the q.Len-p.Len
// prefixes that peel off the path from p down to q — this is the classic
// prefix-subtraction step behind the paper's EliminateOverlap.
func (p Prefix) Subtract(q Prefix) []Prefix {
	if !p.Overlaps(q) {
		return []Prefix{p}
	}
	if q.Contains(p) {
		return nil
	}
	out := make([]Prefix, 0, q.Len-p.Len)
	for cur := p; cur.Len < q.Len; {
		var off Prefix
		off, cur = cur.peel(q)
		out = append(out, off)
	}
	return out
}

// peel splits p one level toward q (strictly inside p): off is the half
// that does not contain q — one fragment of p minus q — and on the half
// that does, to be peeled further.
func (p Prefix) peel(q Prefix) (off, on Prefix) {
	lo, hi := p.Children()
	if lo.Contains(q) {
		return hi, lo
	}
	return lo, hi
}

// MergePrefixes combines sibling prefixes into their parent repeatedly and
// removes prefixes contained in other prefixes, returning a minimal
// equivalent cover in SortPrefixes order. This is the merge step of
// Algorithm 1 (line 7), used to minimize the number of partition rules
// inserted into the shadow table.
func MergePrefixes(in []Prefix) []Prefix {
	out := append([]Prefix(nil), in...)
	slices.SortFunc(out, cmpPrefix)
	return aggregateSorted(out)
}

// aggregateSorted is MergePrefixes on a slice already in cmpPrefix order,
// done in place on its backing array. In that order a prefix precedes
// everything it contains and a 0-half precedes its sibling, so one pass with
// the output as a stack suffices: drop a prefix the stack top contains, push
// anything else, and fold the top two into their parent while they are
// siblings. A folded parent starts at its 0-half's address, so nothing
// already on the stack can lie inside it.
func aggregateSorted(ps []Prefix) []Prefix {
	w := 0
	for _, p := range ps {
		if w > 0 && ps[w-1].Contains(p) {
			continue
		}
		ps[w] = p
		w++
		for w >= 2 && ps[w-1].Len > 0 && ps[w-1].Len == ps[w-2].Len && ps[w-1].Sibling() == ps[w-2] {
			ps[w-2] = ps[w-2].Parent()
			w--
		}
	}
	return ps[:w]
}

// SortPrefixes orders prefixes by address then length, giving deterministic
// output for tests and rendering.
func SortPrefixes(ps []Prefix) { slices.SortFunc(ps, cmpPrefix) }

func cmpPrefix(a, b Prefix) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}
