package classifier

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in      string
		want    Prefix
		wantErr bool
	}{
		{"192.168.1.0/24", Prefix{0xC0A80100, 24}, false},
		{"10.0.0.0/8", Prefix{0x0A000000, 8}, false},
		{"0.0.0.0/0", Prefix{0, 0}, false},
		{"255.255.255.255/32", Prefix{0xFFFFFFFF, 32}, false},
		{"1.2.3.4", Prefix{0x01020304, 32}, false},
		// Non-canonical host bits must be masked away.
		{"192.168.1.5/24", Prefix{0xC0A80100, 24}, false},
		{"192.168.1.0/33", Prefix{}, true},
		{"192.168.1/24", Prefix{}, true},
		{"192.168.1.x/24", Prefix{}, true},
		{"300.0.0.1/8", Prefix{}, true},
	}
	for _, c := range cases {
		got, err := ParsePrefix(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePrefix(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePrefix(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePrefix(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPrefixString(t *testing.T) {
	for _, s := range []string{"192.168.1.0/24", "0.0.0.0/0", "10.1.2.3/32"} {
		if got := MustParsePrefix(s).String(); got != s {
			t.Errorf("round trip %q = %q", s, got)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p24 := MustParsePrefix("192.168.1.0/24")
	p26 := MustParsePrefix("192.168.1.0/26")
	p26b := MustParsePrefix("192.168.1.64/26")
	other := MustParsePrefix("10.0.0.0/8")
	all := MustParsePrefix("0.0.0.0/0")

	if !p24.Contains(p26) || !p24.Contains(p26b) {
		t.Error("p24 should contain its /26 halves")
	}
	if p26.Contains(p24) {
		t.Error("/26 must not contain its /24 parent")
	}
	if !p24.Contains(p24) {
		t.Error("a prefix contains itself")
	}
	if p26.Contains(p26b) || p26b.Contains(p26) {
		t.Error("disjoint siblings must not contain each other")
	}
	if !all.Contains(other) || !all.Contains(p24) {
		t.Error("0/0 contains everything")
	}
	if p24.Overlaps(other) {
		t.Error("192.168.1.0/24 and 10/8 do not overlap")
	}
	if !p24.Overlaps(p26) || !p26.Overlaps(p24) {
		t.Error("nested prefixes overlap symmetrically")
	}
}

func TestPrefixChildrenParentSibling(t *testing.T) {
	p := MustParsePrefix("192.168.1.0/24")
	lo, hi := p.Children()
	if lo != MustParsePrefix("192.168.1.0/25") || hi != MustParsePrefix("192.168.1.128/25") {
		t.Errorf("children = %v,%v", lo, hi)
	}
	if lo.Parent() != p || hi.Parent() != p {
		t.Error("parent of children must be original")
	}
	if lo.Sibling() != hi || hi.Sibling() != lo {
		t.Error("siblings must mirror")
	}
	defer func() {
		if recover() == nil {
			t.Error("Children on /32 must panic")
		}
	}()
	MustParsePrefix("1.2.3.4/32").Children()
}

func TestSubtractExamples(t *testing.T) {
	p24 := MustParsePrefix("192.168.1.0/24")
	p26 := MustParsePrefix("192.168.1.0/26")

	// The paper's Fig. 4c example: 192.168.1.0/24 minus 192.168.1.0/26 is
	// {192.168.1.64/26, 192.168.1.128/25}.
	got := p24.Subtract(p26)
	slices.SortFunc(got, cmpPrefix)
	want := []Prefix{
		MustParsePrefix("192.168.1.64/26"),
		MustParsePrefix("192.168.1.128/25"),
	}
	if len(got) != len(want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subtract = %v, want %v", got, want)
		}
	}

	// Disjoint: unchanged.
	if r := p24.Subtract(MustParsePrefix("10.0.0.0/8")); len(r) != 1 || r[0] != p24 {
		t.Errorf("disjoint subtract = %v", r)
	}
	// Contained: empty.
	if r := p26.Subtract(p24); r != nil {
		t.Errorf("subtract of containing prefix = %v, want nil", r)
	}
	// Self: empty.
	if r := p24.Subtract(p24); r != nil {
		t.Errorf("self subtract = %v, want nil", r)
	}
}

// randomPrefix draws a prefix with length biased toward realistic FIB
// lengths.
func randomPrefix(r *rand.Rand) Prefix {
	plen := uint8(r.Intn(33))
	return NewPrefix(r.Uint32(), plen)
}

// addrInside returns a uniformly random address inside p.
func addrInside(r *rand.Rand, p Prefix) uint32 {
	return p.Addr | (r.Uint32() & ^p.Mask())
}

func TestSubtractProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q := randomPrefix(rr), randomPrefix(rr)
		pieces := p.Subtract(q)
		// Pieces must be inside p, disjoint from q, and mutually disjoint.
		for i, a := range pieces {
			if !p.Contains(a) {
				t.Logf("piece %v outside %v", a, p)
				return false
			}
			if a.Overlaps(q) {
				t.Logf("piece %v overlaps subtrahend %v", a, q)
				return false
			}
			for j := i + 1; j < len(pieces); j++ {
				if a.Overlaps(pieces[j]) {
					t.Logf("pieces %v and %v overlap", a, pieces[j])
					return false
				}
			}
		}
		// Membership check on sampled addresses: addr ∈ p\q ⇔ addr in some
		// piece.
		for k := 0; k < 64; k++ {
			addr := addrInside(r, p)
			want := p.MatchesAddr(addr) && !q.MatchesAddr(addr)
			got := false
			for _, a := range pieces {
				if a.MatchesAddr(addr) {
					got = true
					break
				}
			}
			if got != want {
				t.Logf("addr %08x: got %v want %v (p=%v q=%v pieces=%v)", addr, got, want, p, q, pieces)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// aggregate sorts a copy of in and folds it with aggregateSorted, as
// mergeDst does for each src group.
func aggregate(in []Prefix) []Prefix {
	out := slices.Clone(in)
	slices.SortFunc(out, cmpPrefix)
	return aggregateSorted(out)
}

func TestMergePrefixesSiblings(t *testing.T) {
	in := []Prefix{
		MustParsePrefix("192.168.1.0/26"),
		MustParsePrefix("192.168.1.64/26"),
		MustParsePrefix("192.168.1.128/25"),
	}
	got := aggregate(in)
	if len(got) != 1 || got[0] != MustParsePrefix("192.168.1.0/24") {
		t.Errorf("aggregate = %v, want [192.168.1.0/24]", got)
	}
}

func TestMergePrefixesContainment(t *testing.T) {
	in := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.1.0.0/16"), // covered
		MustParsePrefix("192.168.0.0/16"),
	}
	got := aggregate(in)
	if len(got) != 2 {
		t.Fatalf("aggregate = %v, want 2 prefixes", got)
	}
	if got[0] != MustParsePrefix("10.0.0.0/8") || got[1] != MustParsePrefix("192.168.0.0/16") {
		t.Errorf("aggregate = %v", got)
	}
}

func TestMergePrefixesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(12)
		in := make([]Prefix, n)
		for i := range in {
			// Cluster prefixes so merges actually happen.
			in[i] = NewPrefix(0xC0A80000|rr.Uint32()&0xFFFF, uint8(16+rr.Intn(17)))
		}
		out := aggregate(in)
		if len(out) > len(in) {
			return false
		}
		covers := func(set []Prefix, addr uint32) bool {
			for _, p := range set {
				if p.MatchesAddr(addr) {
					return true
				}
			}
			return false
		}
		// Coverage equivalence on sampled addresses.
		for k := 0; k < 128; k++ {
			addr := addrInside(r, in[rr.Intn(n)])
			if covers(in, addr) != covers(out, addr) {
				return false
			}
			addr = r.Uint32()
			if covers(in, addr) != covers(out, addr) {
				return false
			}
		}
		// Minimality: no two siblings, no containment.
		for i, a := range out {
			for j, b := range out {
				if i == j {
					continue
				}
				if a.Contains(b) {
					return false
				}
				if a.Len > 0 && b == a.Sibling() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSortPrefixes pins cmpPrefix's order, which aggregateSorted relies on:
// by address, then a prefix before the longer ones it contains.
func TestSortPrefixes(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("1.0.0.0/8"),
	}
	slices.SortFunc(ps, cmpPrefix)
	if ps[0] != MustParsePrefix("1.0.0.0/8") || ps[1] != MustParsePrefix("10.0.0.0/8") || ps[2] != MustParsePrefix("10.0.0.0/16") {
		t.Errorf("sorted = %v", ps)
	}
}
