package classifier

import (
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
// packet through the snapshot index and the linear oracle; any divergence
// is a bug regardless of input shape.
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
