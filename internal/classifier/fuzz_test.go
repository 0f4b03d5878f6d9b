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

// decodeShapes turns fuzz bytes into at most max rules, 5 bytes each:
// dst-addr-high, dst-len, priority, src-addr-high, src-len. Coarse
// quantization keeps overlaps and ties frequent. A dst-len byte b with the
// high bit set stands for a dense run instead, enough to fill a stride
// table: 4 << (b>>4&3) sibling prefixes of length 8 + b&15 side by side
// from the dst address, each with the shape's priority and src. Each rule
// comes with a probe packet: its dst address with the raw priority byte as
// the low byte, so a probe may fall inside a long rule or just outside it,
// and its src address.
func decodeShapes(data []byte, max int) (rules []Rule, probes [][2]uint32) {
	for i := 0; i+5 <= len(data) && len(rules) < max; i += 5 {
		r := Rule{Match: Match{Src: NewPrefix(uint32(data[i+3])<<24, data[i+4]%33)}, Priority: int32(data[i+2] % 8)}
		base, b := uint32(data[i])<<24, data[i+1]
		add := func() {
			rules = append(rules, r)
			probes = append(probes, [2]uint32{r.Match.Dst.Addr | uint32(data[i+2]), r.Match.Src.Addr})
		}
		if b < 0x80 {
			r.Match.Dst = NewPrefix(base, b%33)
			add()
			continue
		}
		plen := 8 + b&15
		for j := uint32(0); j < 4<<(b>>4&3) && len(rules) < max; j++ {
			r.Match.Dst = NewPrefix(base+j<<(32-plen), plen)
			add()
		}
	}
	return rules, probes
}

// FuzzRuleIndexEquivalence feeds arbitrary packed rule bytes and a probe
// packet through the bulk-built snapshot and the linear oracle; any
// divergence is a bug regardless of input shape.
func FuzzRuleIndexEquivalence(f *testing.F) {
	f.Add([]byte{0x0a, 8, 0, 0, 1, 0xc0, 16, 1, 2, 3}, uint32(0x0a000001), uint32(0))
	f.Add([]byte{}, uint32(1), uint32(2))
	// A full stride table over eight /16s, a /14 inside its stride and a
	// source-constrained /15 that marks the slots it covers.
	f.Add([]byte{0x0a, 0x98, 1, 0, 0, 0x0a, 14, 5, 0, 0, 0x0a, 15, 6, 0xc0, 8}, uint32(0x0a010001), uint32(0xc0000001))
	f.Fuzz(func(t *testing.T, data []byte, dst, src uint32) {
		rules, _ := decodeShapes(data, 64)
		for i := range rules {
			rules[i].ID = RuleID(i + 1)
		}
		want, wok := linearFirstMatch(rules, dst, src)
		got, gok := NewRuleIndex(rules).Lookup(dst, src)
		if wok != gok || got != want {
			t.Fatalf("index %v,%v linear %v,%v", got, gok, want, wok)
		}
	})
}

// frozenNodes adds every node and stride table reachable from n to set.
func frozenNodes(n *trieNode, set map[any]bool) {
	if n == nil || set[n] {
		return
	}
	set[n] = true
	if n.wide != nil {
		set[n.wide] = true
	}
	frozenNodes(n.children[0], set)
	frozenNodes(n.children[1], set)
}

// checkOwnership asserts the copy-on-write invariant: no node a snapshot can
// reach (frozen) sits on the freelist, and no node or stride table a
// snapshot can reach is still treated as the trie's own.
func checkOwnership(t *testing.T, tr *Trie, frozen map[any]bool) {
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
		if w := n.wide; w != nil && w.epoch == tr.epoch && frozen[w] {
			t.Fatal("trie would mutate in place a stride table a snapshot can reach")
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(tr.root)
}

// checkCompressed asserts the path-compressed shape: every node holds
// entries or has two children; a child's prefix strictly extends its
// parent's and sits on the side of the parent's branch bit it hangs on; a
// node's mask is a netmask its address fits and its branch bit the mask's
// highest host bit; maxPrio is its entries' highest priority; every stride
// table agrees with the nodes below it (checkWide); the trie counts the
// rules it holds; and the freelist is as long as it says and no longer than
// maxFreeNodes.
func checkCompressed(t testing.TB, tr *Trie) {
	t.Helper()
	rules := 0
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		p := Prefix{Addr: n.addr, Len: n.plen()}
		if p.Len > 32 || n.mask != p.Mask() || n.addr&^n.mask != 0 {
			t.Fatalf("node %v carries mask %08x", p, n.mask)
		}
		if b := n.branch(); (p.Len == 32 && b != 0) || (p.Len < 32 && b != 1<<(31-p.Len)) {
			t.Fatalf("node %v branches on bit %08x", p, b)
		}
		if n.wide != nil {
			checkWide(t, n)
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
			if c.plen() <= p.Len || c.addr&n.mask != n.addr || (c.addr&n.branch() != 0) != (side == 1) {
				t.Fatalf("child %v hangs on side %d of %v", Prefix{Addr: c.addr, Len: c.plen()}, side, p)
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

// checkWide recomputes every slot of n's stride table from the nodes below
// n by a flat scan rather than the slot walk: next is the shallowest node
// inside the slot's prefix and at least as long, and best the first-match
// winner — or the source mark — among the entries of the nodes strictly
// between n and the slot's depth whose prefix contains the slot's. best is
// compared by value, since a slot may hold a snapshot's copy of an entry
// the trie has copied but not changed. The table's geometry must be its
// stride's, its count of live slots exact, and at least a quarter full.
func checkWide(t testing.TB, n *trieNode) {
	t.Helper()
	w, p := n.wide, n.plen()
	if w.k < minStride || w.k > maxStride || p+w.k > 32 || w.shift != 32-p-w.k || w.idx != 1<<w.k-1 || len(w.slots) != 1<<w.k {
		t.Fatalf("node %v carries a table of stride %d, shift %d, index mask %x, %d slots",
			Prefix{Addr: n.addr, Len: p}, w.k, w.shift, w.idx, len(w.slots))
	}
	var below []*trieNode // pre-order, so the nodes containing one prefix come shallowest first
	var collect func(c *trieNode)
	collect = func(c *trieNode) {
		if c != nil {
			below = append(below, c)
			collect(c.children[0])
			collect(c.children[1])
		}
	}
	collect(n.children[0])
	collect(n.children[1])
	used := 0
	for i, s := range w.slots {
		sp := Prefix{Addr: n.addr | uint32(i)<<w.shift, Len: p + w.k}
		var next *trieNode
		var best *trieEntry
		for _, c := range below {
			cp := Prefix{Addr: c.addr, Len: c.plen()}
			switch {
			case sp.Contains(cp):
				if next == nil || cp.Len < next.plen() {
					next = c
				}
			case cp.Contains(sp):
				for j := range c.entries {
					e := &c.entries[j]
					switch {
					case best == &inStride:
					case e.rule.Match.Src != Prefix{}:
						best = &inStride
					case best == nil || e.rule.Priority > best.rule.Priority || (e.rule.Priority == best.rule.Priority &&
						(e.key.Rank < best.key.Rank || (e.key.Rank == best.key.Rank && e.key.Ord < best.key.Ord))):
						best = e
					}
				}
			}
		}
		if s.next != next {
			t.Fatalf("table of %v: slot %v leads to %p, the nodes below say %p", Prefix{Addr: n.addr, Len: p}, sp, s.next, next)
		}
		if (s.best == nil) != (best == nil) || (s.best == &inStride) != (best == &inStride) || (best != nil && *s.best != *best) {
			t.Fatalf("table of %v: slot %v holds best %+v, the nodes below say %+v", Prefix{Addr: n.addr, Len: p}, sp, s.best, best)
		}
		if next != nil {
			used++
		}
	}
	if used != int(w.used) || 4*used < len(w.slots) {
		t.Fatalf("table of %v: %d of %d slots lead to a node, the table counts %d (a table under a quarter full goes)",
			Prefix{Addr: n.addr, Len: p}, used, len(w.slots), w.used)
	}
}

// FuzzTrieSnapshotIsolation drives one trie through an op stream of keyed
// inserts, deletes, updates, clears and freezes. The live trie deletes and
// updates through the handles InsertKeyed returned, kept current by its
// OnMove hook across every Freeze; after every op each handle must name the
// node a walk to its rule finds, and a get through it must read the model's
// rule, as a get by walk does. Every snapshot retained at
// a Freeze must keep answering exactly as the linear oracle over the rule
// list as of that freeze, whatever happens later, checked after every op,
// and so must each Hit its walk returned at the freeze: a hit reads the
// snapshot's entry, which no later write or recycled node may change;
// the live trie must answer
// as the current list, by its binary walk and through its stride tables; its
// overlap walk, and that of a never-frozen twin fed
// the same ops, must yield what the flat-list order oracle yields, in the
// same order (the order decides fragment shapes), and a walk with a random
// priority floor exactly that sequence without the rules below the floor,
// and one that calls Skip at points drawn from the ops that sequence less
// exactly what each Skip drops;
// the live trie's Clear must recycle only its own nodes; and node ownership and
// the compressed shape must hold after every op, also across the
// wrap-around of the 32-bit epoch. The committed corpus has a seed for each
// structural edit: a split where the new prefix diverges mid-edge, a prefix
// ending inside an edge (the new node becomes a parent), a delete that
// merges a single child up, a split and a merge under a retained snapshot,
// and the epoch wrap; and for each stride-table edit, under retained
// snapshots and across the wrap: a table created, grown wider, shrunk and
// dissolved, an entry inside a stride pushed into its slots, a
// source-constrained entry marking them, and a priority tie a slot's entry
// loses or wins by Key.
func FuzzTrieSnapshotIsolation(f *testing.F) {
	pool := []byte{0x0a, 8, 1, 0, 0, 0x0a, 16, 1, 0, 0, 0x0a, 16, 1, 0x0a, 8, 0x0a, 24, 2, 0, 0, 0x0b, 0, 0, 0, 0}
	f.Add(pool, []byte{0, 0, 1, 1, 12, 0, 2, 2, 6, 0, 12, 0, 0, 3, 10, 1, 12, 0, 6, 1, 6, 0}, uint32(0x0a000001), uint32(0))
	f.Add(pool, []byte{0, 4, 0, 4, 12, 0, 15, 0, 0, 4, 12, 0, 6, 0, 0, 1}, uint32(0x0b000001), uint32(0x0a000000))
	f.Add([]byte{}, []byte{12, 0, 15, 0}, uint32(1), uint32(2))
	// Across the epoch's wrap-around: the 11/8 branch predates the first
	// freeze and is next written after the wrapping one.
	f.Add([]byte{0x0a, 8, 1, 0, 0, 0x0b, 8, 1, 0, 0, 0x0b, 16, 2, 0, 0},
		[]byte{0, 0, 0, 1, 12, 0, 0, 0, 12, 0, 0, 2, 12, 0, 6, 1}, uint32(0x0b000001), uint32(0))
	// Across the wrap through handles taken before it: both rules are
	// inserted before the first freeze, the second freeze wraps, and the
	// update and delete that follow go through the re-pointed handles.
	f.Add([]byte{0x0a, 8, 1, 0, 0, 0x0a, 16, 1, 0, 0},
		[]byte{0, 0, 0, 1, 12, 0, 12, 0, 10, 0, 6, 1, 12, 0, 10, 0}, uint32(0x0a000001), uint32(0))
	f.Fuzz(func(t *testing.T, data, ops []byte, dst, src uint32) {
		shapes, probes := decodeShapes(data, 64)
		probes = append(probes, [2]uint32{dst, src})
		agree := func(what string, lookup func(dst, src uint32) (Rule, bool), model []keyedRule) {
			t.Helper()
			for _, p := range probes {
				want, wok := firstMatch(model, p[0], p[1])
				if got, ok := lookup(p[0], p[1]); ok != wok || got != want {
					t.Fatalf("%s: Lookup(%08x,%08x) = %v,%v, linear %v,%v", what, p[0], p[1], got, ok, want, wok)
				}
			}
		}

		type answer struct {
			r  Rule
			ok bool
		}
		type retained struct {
			snap    Snapshot
			answers []answer // the oracle's, per probe, as of the freeze
			hits    []Hit    // Find's, per probe, at the freeze
		}
		var (
			live, twin Trie // twin is never frozen
			model      []keyedRule
			snaps      []retained
			frozen     = map[any]bool{}
			stamp      uint64 // distinct ords keep the first-match order total
			handles    = map[RuleID]Handle{}
		)
		live.OnMove(func(id RuleID, h Handle) {
			if _, ok := handles[id]; !ok {
				t.Fatalf("OnMove(%d): no such entry", id)
			}
			handles[id] = h
		})
		for i := 0; i+2 <= len(ops) && i < 512; i += 2 {
			op, arg := ops[i]%16, int(ops[i+1])
			switch {
			case op < 6 && len(shapes) > 0: // InsertKeyed
				stamp++
				r := shapes[arg%len(shapes)]
				r.ID = RuleID(stamp)
				k := Key{Rank: uint64(arg % 3), Ord: stamp}
				handles[r.ID] = live.InsertKeyed(r, k)
				twin.InsertKeyed(r, k)
				model = append(model, keyedRule{r, k})
			case op < 10 && len(model) > 0: // Delete
				j := arg % len(model)
				r := model[j].Rule
				if !live.DeleteAt(handles[r.ID], r.Match.Dst, r.ID) || !twin.Delete(r.Match.Dst, r.ID) {
					t.Fatalf("Delete(%v) missed", r)
				}
				delete(handles, r.ID)
				model = slices.Delete(model, j, j+1)
			case op < 12 && len(model) > 0: // Update
				stamp++
				r := &model[arg%len(model)].Rule
				r.Priority, r.Action.Port = int32(arg%8), int(stamp)
				if !live.UpdateAt(handles[r.ID], r.Match.Dst, *r) || !twin.Update(r.Match.Dst, *r) {
					t.Fatalf("Update(%v) missed", *r)
				}
			case op < 15: // Freeze
				if len(snaps) < 24 {
					snap := live.Freeze()
					agree("new snapshot", snap.Lookup, model)
					answers, hits := make([]answer, len(probes)), make([]Hit, len(probes))
					for j, p := range probes {
						answers[j].r, answers[j].ok = firstMatch(model, p[0], p[1])
						hits[j] = snap.Find(p[0], p[1])
					}
					snaps = append(snaps, retained{snap, answers, hits})
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
				clear(handles)
			}
			if live.Size() != len(model) {
				t.Fatalf("Size = %d, model holds %d", live.Size(), len(model))
			}
			checkOwnership(t, &live, frozen)
			checkCompressed(t, &live)
			checkCompressed(t, &twin)
			if len(handles) != len(model) {
				t.Fatalf("%d handles for %d rules", len(handles), len(model))
			}
			for _, e := range model {
				var path [33]*trieNode
				h := handles[e.ID]
				i, d, _ := live.locate(Handle{}, e.Match.Dst, e.ID, &path)
				if i < 0 || h.n != path[d] {
					t.Fatalf("handle of %v names a node a walk does not find", e.Rule)
				}
				got, ok := live.GetAt(h, e.ID)
				walked, wok := live.Get(e.Match.Dst, e.ID)
				if !ok || !wok || got != e.Rule || walked != e.Rule {
					t.Fatalf("get of %v: through its handle %v,%v, by walk %v,%v", e.Rule, got, ok, walked, wok)
				}
			}
			agree("live trie", live.Lookup, model)
			agree("live trie's stride tables", Snapshot{live.root}.Lookup, model)
			rules := make([]Rule, len(model))
			for j := range model {
				rules[j] = model[j].Rule
			}
			for k, q := range shapes {
				want := oracleOverlapping(rules, q.Match)
				if got := live.Overlapping(q.Match); !slices.Equal(got, want) {
					t.Fatalf("Overlapping(%v) = %v, oracle %v", q.Match, got, want)
				}
				if got := twin.Overlapping(q.Match); !slices.Equal(got, want) {
					t.Fatalf("never-frozen twin: Overlapping(%v) = %v, oracle %v", q.Match, got, want)
				}
				// A floor in -1..8 drawn from the op stream and the query
				// filters that sequence and keeps its order.
				floor := int32((int(ops[i+1])+k*7)%10) - 1
				want = slices.DeleteFunc(want, func(r Rule) bool { return r.Priority < floor })
				if got := live.overlappingFrom(q.Match, floor); !slices.Equal(got, want) {
					t.Fatalf("overlap walk of %v from priority %d = %v, filtered oracle %v", q.Match, floor, got, want)
				}
				// Skip after every few rules, at points drawn the same way,
				// drops exactly what Skip's oracle drops.
				every := 1 + (int(ops[i])+k)%4
				skip := func(j int) bool { return j%every == k%every }
				want = oracleSkipping(want, q.Match, skip)
				if got := live.overlappingSkipping(q.Match, floor, skip); !slices.Equal(got, want) {
					t.Fatalf("overlap walk of %v from priority %d skipping every %d from %d = %v, oracle %v",
						q.Match, floor, every, k%every, got, want)
				}
			}
			for k, s := range snaps {
				for j, p := range probes {
					if got, ok := s.snap.Lookup(p[0], p[1]); ok != s.answers[j].ok || got != s.answers[j].r {
						t.Fatalf("snapshot %d: Lookup(%08x,%08x) = %v,%v, at its freeze %v,%v", k, p[0], p[1], got, ok, s.answers[j].r, s.answers[j].ok)
					}
					if got, ok := s.hits[j].Rule(); ok != s.answers[j].ok || got != s.answers[j].r {
						t.Fatalf("snapshot %d: the hit for (%08x,%08x) taken at its freeze now reads %v,%v, at its freeze %v,%v", k, p[0], p[1], got, ok, s.answers[j].r, s.answers[j].ok)
					}
				}
			}
		}
	})
}
