package classifier

import (
	"fmt"
	"slices"
)

// ActionType enumerates the forwarding actions a rule can take. The set
// mirrors what the paper's examples use (forward to a port, drop, punt to
// the controller) plus the table-miss "goto next table" behaviour Hermes
// configures on shadow tables (§3, §6).
type ActionType uint8

const (
	// ActionForward sends matching packets out Action.Port.
	ActionForward ActionType = iota
	// ActionDrop discards matching packets.
	ActionDrop
	// ActionController punts matching packets to the SDN controller.
	ActionController
	// ActionGotoNext continues lookup in the next table in the pipeline.
	ActionGotoNext
)

func (t ActionType) String() string {
	switch t {
	case ActionForward:
		return "fwd"
	case ActionDrop:
		return "drop"
	case ActionController:
		return "ctrl"
	case ActionGotoNext:
		return "goto-next"
	default:
		return fmt.Sprintf("action(%d)", uint8(t))
	}
}

// Action is what a matching rule does with a packet.
type Action struct {
	Type ActionType
	Port int // output port for ActionForward
}

func (a Action) String() string {
	if a.Type == ActionForward {
		return fmt.Sprintf("fwd:%d", a.Port)
	}
	return a.Type.String()
}

// Match is the region of header space a rule covers: a destination prefix
// and a source prefix. FIB-style rules leave Src as the zero value (0/0).
// Two matches overlap iff both dimensions overlap.
type Match struct {
	Dst Prefix
	Src Prefix
}

// DstMatch is a convenience constructor for FIB-style destination-only
// matches.
func DstMatch(dst Prefix) Match { return Match{Dst: dst} }

func (m Match) String() string {
	if m.Src.Len == 0 {
		return "dst=" + m.Dst.String()
	}
	return "dst=" + m.Dst.String() + ",src=" + m.Src.String()
}

// Overlaps reports whether the two match regions share any packet.
func (m Match) Overlaps(o Match) bool {
	return m.Dst.Overlaps(o.Dst) && m.Src.Overlaps(o.Src)
}

// Contains reports whether m fully contains o.
func (m Match) Contains(o Match) bool {
	return m.Dst.Contains(o.Dst) && m.Src.Contains(o.Src)
}

// MatchesPacket reports whether the (dst, src) address pair falls in the
// region.
func (m Match) MatchesPacket(dst, src uint32) bool {
	return m.Dst.MatchesAddr(dst) && m.Src.MatchesAddr(src)
}

// Subtract returns a set of match regions exactly covering m minus o.
// The result is empty when o contains m and {m} when they do not overlap.
func (m Match) Subtract(o Match) []Match { return m.AppendSubtract(nil, o) }

// AppendSubtract appends the regions of m minus o to dst and returns it —
// Subtract for callers that bring their own buffer (Algorithm 1 runs
// EliminateOverlap on two reused slices).
//
// For the two-dimensional case the difference decomposes into (i) the dst
// slices of m outside o's dst, each keeping m's full src range, and (ii) the
// dst intersection combined with m's src minus o's src. Because prefixes
// only nest, the intersection of two overlapping prefixes is simply the
// longer one. Fragments come out in that order, each dimension peeled from
// the widest slice to the narrowest.
func (m Match) AppendSubtract(dst []Match, o Match) []Match {
	if !m.Overlaps(o) {
		return append(dst, m)
	}
	// Dst slices outside o.Dst (none when o.Dst contains m.Dst).
	dstInt := m.Dst
	for dstInt.Len < o.Dst.Len {
		var off Prefix
		off, dstInt = dstInt.peel(o.Dst)
		dst = append(dst, Match{Dst: off, Src: m.Src})
	}
	// Within the dst intersection, keep src slices outside o.Src.
	for src := m.Src; src.Len < o.Src.Len; {
		var off Prefix
		off, src = src.peel(o.Src)
		dst = append(dst, Match{Dst: dstInt, Src: off})
	}
	return dst
}

// MergeMatches minimizes a set of match regions that all carry the same
// action and priority: regions with identical src merge their dst prefixes,
// regions with identical dst merge their src prefixes, and regions contained
// in other regions are dropped. The loop runs to a fixpoint; the result is
// sorted by dst then src. The input is left untouched.
func MergeMatches(in []Match) []Match {
	var s mergeScratch
	return s.merge(append([]Match(nil), in...))
}

// mergeScratch is MergeMatches' reusable working memory.
type mergeScratch struct {
	ps []Prefix
}

// merge is MergeMatches in place: it reorders and shrinks regions and
// returns the minimized prefix of its backing array.
func (s *mergeScratch) merge(regions []Match) []Match {
	for {
		n := len(regions)
		// Group by src, merge dst; then the same with the dimensions swapped.
		regions = s.mergeDst(regions)
		transpose(regions)
		regions = s.mergeDst(regions)
		transpose(regions)
		regions = dropContained(regions)
		if len(regions) == n {
			slices.SortFunc(regions, cmpMatch)
			return regions
		}
	}
}

// mergeDst replaces, within each group of regions sharing a src, the dst
// prefixes by their aggregateSorted cover. In place: groups only shrink.
func (s *mergeScratch) mergeDst(regions []Match) []Match {
	slices.SortFunc(regions, cmpSrcDst)
	w := 0
	for i := 0; i < len(regions); {
		src := regions[i].Src
		s.ps = s.ps[:0]
		for ; i < len(regions) && regions[i].Src == src; i++ {
			s.ps = append(s.ps, regions[i].Dst)
		}
		for _, d := range aggregateSorted(s.ps) {
			regions[w] = Match{Dst: d, Src: src}
			w++
		}
	}
	return regions[:w]
}

func transpose(regions []Match) {
	for i, r := range regions {
		regions[i] = Match{Dst: r.Src, Src: r.Dst}
	}
}

// dropContained removes, in place, every region another region contains.
// The regions are distinct (mergeDst deduplicates), so containment is a
// strict order and a dropped region's container chain always ends in a
// survivor: comparing against the survivors so far and the regions not yet
// visited is comparing against all of them.
func dropContained(regions []Match) []Match {
	w := 0
	for i, r := range regions {
		if !containsAny(regions[:w], r) && !containsAny(regions[i+1:], r) {
			regions[w] = r
			w++
		}
	}
	return regions[:w]
}

func containsAny(set []Match, r Match) bool {
	for _, o := range set {
		if o.Contains(r) {
			return true
		}
	}
	return false
}

func cmpSrcDst(a, b Match) int {
	if c := cmpPrefix(a.Src, b.Src); c != 0 {
		return c
	}
	return cmpPrefix(a.Dst, b.Dst)
}

func cmpMatch(a, b Match) int {
	if c := cmpPrefix(a.Dst, b.Dst); c != 0 {
		return c
	}
	return cmpPrefix(a.Src, b.Src)
}

// RuleID uniquely identifies a rule across the logical table. IDs are
// assigned by the caller (the Hermes agent or the test harness).
type RuleID uint64

// Rule is one logical flow-table entry. Higher Priority wins; ties are
// broken by insertion order (the earlier rule wins), matching TCAM
// first-match semantics.
type Rule struct {
	ID       RuleID
	Match    Match
	Priority int32
	Action   Action
}

func (r Rule) String() string {
	return fmt.Sprintf("rule#%d{%s prio=%d %s}", r.ID, r.Match, r.Priority, r.Action)
}

// Overlaps reports whether two rules' match regions intersect.
func (r Rule) Overlaps(o Rule) bool { return r.Match.Overlaps(o.Match) }
