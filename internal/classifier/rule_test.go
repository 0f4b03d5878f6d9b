package classifier

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func m(dst, src string) Match {
	return Match{Dst: MustParsePrefix(dst), Src: MustParsePrefix(src)}
}

func TestMatchOverlapContains(t *testing.T) {
	a := m("192.168.0.0/16", "10.0.0.0/8")
	b := m("192.168.1.0/24", "10.1.0.0/16")
	c := m("192.168.1.0/24", "172.16.0.0/12")

	if !a.Contains(b) {
		t.Error("a should contain b (both dims nest)")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested matches overlap")
	}
	if a.Overlaps(c) {
		t.Error("src dimensions disjoint: no overlap")
	}
	if b.Contains(a) {
		t.Error("smaller region cannot contain larger")
	}
}

func TestMatchSubtractDstOnly(t *testing.T) {
	// FIB-style: both src = 0/0. Falls back to pure dst subtraction; the
	// src-intersection branch contributes nothing because src\src = ∅.
	a := DstMatch(MustParsePrefix("192.168.1.0/24"))
	b := DstMatch(MustParsePrefix("192.168.1.0/26"))
	parts := a.AppendSubtract(nil, b)
	if len(parts) != 2 {
		t.Fatalf("Subtract = %v, want 2 parts", parts)
	}
	for _, p := range parts {
		if p.Src.Len != 0 {
			t.Errorf("src must remain 0/0, got %v", p.Src)
		}
		if p.Overlaps(b) {
			t.Errorf("part %v overlaps subtrahend", p)
		}
	}
}

func TestMatchSubtractTwoDimensional(t *testing.T) {
	a := m("192.168.0.0/16", "0.0.0.0/0")
	b := m("192.168.1.0/24", "10.0.0.0/8")
	parts := a.AppendSubtract(nil, b)
	if len(parts) == 0 {
		t.Fatal("partial overlap must leave fragments")
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 2000; k++ {
		dst := addrInside(r, a.Dst)
		src := r.Uint32()
		want := a.MatchesPacket(dst, src) && !b.MatchesPacket(dst, src)
		got := false
		for _, p := range parts {
			if p.MatchesPacket(dst, src) {
				got = true
				break
			}
		}
		if got != want {
			t.Fatalf("packet (%08x,%08x): got %v want %v", dst, src, got, want)
		}
	}
	// Fragments must be pairwise disjoint.
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Overlaps(parts[j]) {
				t.Fatalf("fragments %v and %v overlap", parts[i], parts[j])
			}
		}
	}
}

func randomMatch(r *rand.Rand) Match {
	// Cluster to force overlaps frequently.
	dst := NewPrefix(0xC0A80000|(r.Uint32()&0x0000FFFF), uint8(12+r.Intn(21)))
	src := Prefix{}
	if r.Intn(2) == 0 {
		src = NewPrefix(0x0A000000|(r.Uint32()&0x00FFFFFF), uint8(8+r.Intn(25)))
	}
	return Match{Dst: dst, Src: src}
}

func TestMatchSubtractProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomMatch(r), randomMatch(r)
		parts := a.AppendSubtract(nil, b)
		for i, p := range parts {
			if !a.Contains(p) {
				return false
			}
			if p.Overlaps(b) {
				return false
			}
			for j := i + 1; j < len(parts); j++ {
				if p.Overlaps(parts[j]) {
					return false
				}
			}
		}
		for k := 0; k < 128; k++ {
			dst := addrInside(r, a.Dst)
			src := addrInside(r, a.Src)
			want := a.MatchesPacket(dst, src) && !b.MatchesPacket(dst, src)
			got := false
			for _, p := range parts {
				if p.MatchesPacket(dst, src) {
					got = true
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMergeMatches(t *testing.T) {
	in := []Match{
		m("192.168.1.0/26", "0.0.0.0/0"),
		m("192.168.1.64/26", "0.0.0.0/0"),
		m("192.168.1.128/25", "0.0.0.0/0"),
	}
	out := MergeMatches(in)
	if len(out) != 1 || out[0] != m("192.168.1.0/24", "0.0.0.0/0") {
		t.Errorf("MergeMatches = %v", out)
	}
}

func TestMergeMatchesMixedSrc(t *testing.T) {
	in := []Match{
		m("192.168.1.0/25", "10.0.0.0/9"),
		m("192.168.1.0/25", "10.128.0.0/9"),
		m("192.168.1.128/25", "10.0.0.0/8"),
	}
	out := MergeMatches(in)
	// First two merge on src into (.0/25, 10/8); then dst-merge with the
	// third into (192.168.1.0/24, 10/8).
	if len(out) != 1 || out[0] != m("192.168.1.0/24", "10.0.0.0/8") {
		t.Errorf("MergeMatches = %v", out)
	}
}

func TestMergeMatchesPreservesCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		in := make([]Match, n)
		for i := range in {
			in[i] = randomMatch(r)
		}
		out := MergeMatches(in)
		if len(out) > len(in) {
			return false
		}
		covers := func(set []Match, dst, src uint32) bool {
			for _, mm := range set {
				if mm.MatchesPacket(dst, src) {
					return true
				}
			}
			return false
		}
		for k := 0; k < 128; k++ {
			base := in[r.Intn(n)]
			dst := addrInside(r, base.Dst)
			src := addrInside(r, base.Src)
			if covers(in, dst, src) != covers(out, dst, src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActionString(t *testing.T) {
	if (Action{Type: ActionForward, Port: 3}).String() != "fwd:3" {
		t.Error("forward action string")
	}
	if (Action{Type: ActionDrop}).String() != "drop" {
		t.Error("drop action string")
	}
	if (Action{Type: ActionController}).String() != "ctrl" {
		t.Error("controller action string")
	}
	if (Action{Type: ActionGotoNext}).String() != "goto-next" {
		t.Error("goto action string")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{ID: 7, Match: m("10.0.0.0/8", "0.0.0.0/0"), Priority: 5, Action: Action{Type: ActionDrop}}
	if got := r.String(); got == "" {
		t.Error("empty rule string")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b Match
		want Match
		ok   bool
	}{
		{DstMatch(NewPrefix(0x10<<24, 8)), DstMatch(NewPrefix(0x10<<24|0x01<<16, 16)),
			DstMatch(NewPrefix(0x10<<24|0x01<<16, 16)), true},
		{DstMatch(NewPrefix(0x10<<24, 8)), DstMatch(NewPrefix(0x20<<24, 8)), Match{}, false},
		{
			Match{Dst: NewPrefix(0x0A<<24, 8), Src: NewPrefix(0, 0)},
			Match{Dst: NewPrefix(0, 0), Src: NewPrefix(0xC0<<24, 8)},
			Match{Dst: NewPrefix(0x0A<<24, 8), Src: NewPrefix(0xC0<<24, 8)}, true,
		},
		{DstMatch(Prefix{}), DstMatch(Prefix{}), DstMatch(Prefix{}), true},
	}
	for i, c := range cases {
		got, ok := c.a.Intersect(c.b)
		if ok != c.ok || got != c.want {
			t.Errorf("case %d: Intersect(%v, %v) = %v,%v; want %v,%v", i, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
	// Intersection is commutative.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := randMatch(rng), randMatch(rng)
		ga, oka := a.Intersect(b)
		gb, okb := b.Intersect(a)
		if oka != okb || ga != gb {
			t.Fatalf("Intersect not commutative: %v vs %v", a, b)
		}
	}
}

func randMatch(rng *rand.Rand) Match {
	m := Match{Dst: NewPrefix(rng.Uint32(), uint8(rng.Intn(13)))}
	if rng.Intn(2) == 0 {
		m.Src = NewPrefix(rng.Uint32(), uint8(rng.Intn(9)))
	}
	return m
}
