package classifier

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParsePrefix hammers the prefix parser with arbitrary strings:
// it must never panic (NewPrefix panics on plen > 32, so the parser's
// validation is load-bearing), and everything it accepts must be
// canonical and survive a String→Parse round trip.
func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8", "255.255.255.255/32", "0.0.0.0/0", "1.2.3.4",
		"192.168.1.7/24", "1.2.3.4/33", "256.1.1.1/5", "1.2.3/8",
		"a.b.c.d/8", "1.2.3.4/", "/8", "", "....", "1.2.3.4/08",
		"010.1.1.1/8", "-1.2.3.4/8", "1.2.3.4/-1", "1.2.3.4/999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if p.Len > 32 {
			t.Fatalf("ParsePrefix(%q) accepted length %d", s, p.Len)
		}
		if p.Addr&^p.Mask() != 0 {
			t.Fatalf("ParsePrefix(%q) = %v: host bits set beyond /%d", s, p, p.Len)
		}
		rendered := p.String()
		q, err := ParsePrefix(rendered)
		if err != nil {
			t.Fatalf("String output %q of ParsePrefix(%q) does not re-parse: %v", rendered, s, err)
		}
		if q != p {
			t.Fatalf("round trip changed prefix: %v → %q → %v", p, rendered, q)
		}
		if !p.MatchesAddr(p.Addr) {
			t.Fatalf("prefix %v does not match its own base address", p)
		}
		if strings.Count(rendered, ".") != 3 {
			t.Fatalf("String() produced malformed dotted quad %q", rendered)
		}
	})
}

// FuzzRuleIndexEquivalence feeds arbitrary packed rule bytes and a probe
// packet through the bulk-built snapshot and the linear oracle; any
// divergence is a bug regardless of input shape.
func FuzzRuleIndexEquivalence(f *testing.F) {
	f.Add([]byte{0x0a, 8, 0, 0, 1, 0xc0, 16, 1, 2, 3}, uint32(0x0a000001), uint32(0))
	f.Add([]byte{}, uint32(1), uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, dst, src uint32) {
		// 5 bytes per rule: dst-addr-high, dst-len, priority, src-addr-high,
		// src-len. Coarse quantization keeps overlaps and ties frequent.
		var rules []Rule
		for i := 0; i+5 <= len(data) && len(rules) < 64; i += 5 {
			rules = append(rules, Rule{
				ID:       RuleID(len(rules) + 1),
				Match:    Match{Dst: NewPrefix(uint32(data[i])<<24, data[i+1]%33), Src: NewPrefix(uint32(data[i+3])<<24, data[i+4]%33)},
				Priority: int32(data[i+2] % 8),
			})
		}
		want, wok := linearFirstMatch(rules, dst, src)
		got, gok := NewRuleIndex(rules).Lookup(dst, src)
		if wok != gok || got != want {
			t.Fatalf("index %v,%v linear %v,%v", got, gok, want, wok)
		}
	})
}

// frozenNodes adds every node reachable from n to set.
func frozenNodes(n *trieNode, set map[*trieNode]bool) {
	if n == nil || set[n] {
		return
	}
	set[n] = true
	frozenNodes(n.children[0], set)
	frozenNodes(n.children[1], set)
}

// checkOwnership asserts the copy-on-write invariant: no node a snapshot can
// reach (frozen) sits on the freelist or is still treated as the trie's own.
func checkOwnership(t *testing.T, tr *Trie, frozen map[*trieNode]bool) {
	t.Helper()
	for n := tr.free; n != nil; n = n.children[0] {
		if frozen[n] {
			t.Fatal("freelist holds a node a snapshot can reach")
		}
	}
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.epoch == tr.epoch && frozen[n] {
			t.Fatal("trie would mutate in place a node a snapshot can reach")
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(tr.root)
}

// checkCompressed asserts the path-compressed shape: every node holds
// entries or has two children; a child's prefix strictly extends its
// parent's and sits on the side of the parent's branch bit it hangs on; a
// node's mask and branch bit are its prefix's; maxPrio is its entries'
// highest priority; the trie counts the rules it holds; and the freelist is
// as long as it says and no longer than maxFreeNodes.
func checkCompressed(t testing.TB, tr *Trie) {
	t.Helper()
	rules := 0
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		p := Prefix{Addr: n.addr, Len: n.plen}
		if p.Len > 32 || n.mask != p.Mask() || n.addr&^n.mask != 0 {
			t.Fatalf("node %v carries mask %08x", p, n.mask)
		}
		if (p.Len == 32 && n.bit != 0) || (p.Len < 32 && n.bit != 1<<(31-p.Len)) {
			t.Fatalf("node %v carries branch bit %08x", p, n.bit)
		}
		if len(n.entries) == 0 && (n.children[0] == nil || n.children[1] == nil) {
			t.Fatalf("node %v holds no entries and has fewer than two children", p)
		}
		var best int32
		for i, e := range n.entries {
			if e.rule.Match.Dst != p {
				t.Fatalf("node %v holds rule %v", p, e.rule)
			}
			if i == 0 || e.rule.Priority > best {
				best = e.rule.Priority
			}
		}
		if len(n.entries) != 0 && n.maxPrio != best {
			t.Fatalf("node %v: maxPrio %d, highest entry priority %d", p, n.maxPrio, best)
		}
		rules += len(n.entries)
		for side, c := range n.children {
			if c == nil {
				continue
			}
			if c.plen <= n.plen || c.addr&n.mask != n.addr || (c.addr&n.bit != 0) != (side == 1) {
				t.Fatalf("child %v hangs on side %d of %v", Prefix{Addr: c.addr, Len: c.plen}, side, p)
			}
			walk(c)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	if rules != tr.Size() {
		t.Fatalf("trie holds %d rules, Size says %d", rules, tr.Size())
	}
	free := 0
	for n := tr.free; n != nil; n = n.children[0] {
		free++
	}
	if free != tr.nfree || free > maxFreeNodes {
		t.Fatalf("freelist holds %d nodes, nfree says %d, bound %d", free, tr.nfree, maxFreeNodes)
	}
}

// FuzzTrieSnapshotIsolation drives one trie through an op stream of keyed
// inserts, deletes, updates, clears and freezes. Every snapshot retained at
// a Freeze must keep answering exactly as the linear oracle over the rule
// list as of that freeze, whatever happens later; the live trie must answer
// as the current list; its overlap walk, and that of a never-frozen twin fed
// the same ops, must yield what the flat-list order oracle yields, in the
// same order (the order decides fragment shapes); and node ownership and
// the compressed shape must hold after every op, also across the
// wrap-around of the 32-bit epoch. The committed corpus has a seed for each
// structural edit: a split where the new prefix diverges mid-edge, a prefix
// ending inside an edge (the new node becomes a parent), a delete that
// merges a single child up, a split and a merge under a retained snapshot,
// and the epoch wrap.
func FuzzTrieSnapshotIsolation(f *testing.F) {
	pool := []byte{0x0a, 8, 1, 0, 0, 0x0a, 16, 1, 0, 0, 0x0a, 16, 1, 0x0a, 8, 0x0a, 24, 2, 0, 0, 0x0b, 0, 0, 0, 0}
	f.Add(pool, []byte{0, 0, 1, 1, 12, 0, 2, 2, 6, 0, 12, 0, 0, 3, 10, 1, 12, 0, 6, 1, 6, 0}, uint32(0x0a000001), uint32(0))
	f.Add(pool, []byte{0, 4, 0, 4, 12, 0, 15, 0, 0, 4, 12, 0, 6, 0, 0, 1}, uint32(0x0b000001), uint32(0x0a000000))
	f.Add([]byte{}, []byte{12, 0, 15, 0}, uint32(1), uint32(2))
	// Across the epoch's wrap-around: the 11/8 branch predates the first
	// freeze and is next written after the wrapping one.
	f.Add([]byte{0x0a, 8, 1, 0, 0, 0x0b, 8, 1, 0, 0, 0x0b, 16, 2, 0, 0},
		[]byte{0, 0, 0, 1, 12, 0, 0, 0, 12, 0, 0, 2, 12, 0, 6, 1}, uint32(0x0b000001), uint32(0))
	f.Fuzz(func(t *testing.T, data, ops []byte, dst, src uint32) {
		// 5 bytes per rule, as in FuzzRuleIndexEquivalence.
		var shapes []Rule
		probes := [][2]uint32{{dst, src}}
		for i := 0; i+5 <= len(data) && len(shapes) < 32; i += 5 {
			r := Rule{
				Match:    Match{Dst: NewPrefix(uint32(data[i])<<24, data[i+1]%33), Src: NewPrefix(uint32(data[i+3])<<24, data[i+4]%33)},
				Priority: int32(data[i+2] % 8),
			}
			shapes = append(shapes, r)
			probes = append(probes, [2]uint32{r.Match.Dst.Addr | uint32(data[i+2]), r.Match.Src.Addr})
		}
		agree := func(what string, lookup func(dst, src uint32) (Rule, bool), model []keyedRule) {
			t.Helper()
			for _, p := range probes {
				want, wok := firstMatch(model, p[0], p[1])
				if got, ok := lookup(p[0], p[1]); ok != wok || got != want {
					t.Fatalf("%s: Lookup(%08x,%08x) = %v,%v, linear %v,%v", what, p[0], p[1], got, ok, want, wok)
				}
			}
		}

		type retained struct {
			snap  Snapshot
			model []keyedRule
		}
		var (
			live, twin Trie // twin is never frozen
			model      []keyedRule
			snaps      []retained
			frozen     = map[*trieNode]bool{}
			stamp      uint64 // distinct ords keep the first-match order total
		)
		for i := 0; i+2 <= len(ops) && i < 512; i += 2 {
			op, arg := ops[i]%16, int(ops[i+1])
			switch {
			case op < 6 && len(shapes) > 0: // InsertKeyed
				stamp++
				r := shapes[arg%len(shapes)]
				r.ID = RuleID(stamp)
				k := Key{Rank: uint64(arg % 3), Ord: stamp}
				live.InsertKeyed(r, k)
				twin.InsertKeyed(r, k)
				model = append(model, keyedRule{r, k})
			case op < 10 && len(model) > 0: // Delete
				j := arg % len(model)
				r := model[j].Rule
				if !live.Delete(r.Match.Dst, r.ID) || !twin.Delete(r.Match.Dst, r.ID) {
					t.Fatalf("Delete(%v) missed", r)
				}
				model = slices.Delete(model, j, j+1)
			case op < 12 && len(model) > 0: // Update
				stamp++
				r := &model[arg%len(model)].Rule
				r.Priority, r.Action.Port = int32(arg%8), int(stamp)
				if !live.Update(r.Match.Dst, *r) || !twin.Update(r.Match.Dst, *r) {
					t.Fatalf("Update(%v) missed", *r)
				}
			case op < 15: // Freeze
				if len(snaps) < 24 {
					snap := live.Freeze()
					snaps = append(snaps, retained{snap, slices.Clone(model)})
					frozenNodes(snap.root, frozen)
					if live.epoch == 1 && src%2 == 0 {
						// As if 2^32-2 uneventful freezes followed the first:
						// the next one wraps the epoch around to the nodes
						// created before any freeze.
						live.epoch = ^uint32(0)
					}
				}
			default: // Clear
				live.Clear()
				twin.Clear()
				model = nil
			}
			if live.Size() != len(model) {
				t.Fatalf("Size = %d, model holds %d", live.Size(), len(model))
			}
			checkOwnership(t, &live, frozen)
			checkCompressed(t, &live)
			checkCompressed(t, &twin)
			agree("live trie", live.Lookup, model)
			rules := make([]Rule, len(model))
			for j := range model {
				rules[j] = model[j].Rule
			}
			for _, q := range shapes {
				want := oracleOverlapping(rules, q.Match)
				if got := live.Overlapping(q.Match); !slices.Equal(got, want) {
					t.Fatalf("Overlapping(%v) = %v, oracle %v", q.Match, got, want)
				}
				if got := twin.Overlapping(q.Match); !slices.Equal(got, want) {
					t.Fatalf("never-frozen twin: Overlapping(%v) = %v, oracle %v", q.Match, got, want)
				}
			}
			if n := len(snaps); n > 0 {
				agree("latest snapshot", snaps[n-1].snap.Lookup, snaps[n-1].model)
			}
		}
		for _, s := range snaps {
			agree("retained snapshot", s.snap.Lookup, s.model)
		}
	})
}
