package classifier

// Cover-rule synthesis for dependency-safe cache eviction (DESIGN.md §16).
//
// When a rule h lives only in the software tier while lower-priority rules
// it overlaps stay resident in the TCAM, the hardware tier would wrongly
// answer packets in h's region with the resident rule. The cache manager
// fixes this by installing *cover* rules: entries at h's priority whose
// union is exactly h's match region and whose action punts the packet to
// the software tier (ActionGotoNext). CoverFor computes that region set.

// Intersect returns the intersection of the two match regions. Because
// prefixes only nest, the intersection in each dimension is simply the
// longer of the two overlapping prefixes. ok is false when the regions are
// disjoint.
func (m Match) Intersect(o Match) (Match, bool) {
	if !m.Overlaps(o) {
		return Match{}, false
	}
	out := m
	if o.Dst.Len > out.Dst.Len {
		out.Dst = o.Dst
	}
	if o.Src.Len > out.Src.Len {
		out.Src = o.Src
	}
	return out, true
}

// CoverFor returns a set of match regions whose union is semantically equal
// to rule.Match: every packet rule.Match matches is matched by exactly the
// returned regions and no others. The regions are aligned to the boundaries
// of the dependency rules (the overlapping lower-priority residents the
// eviction must shield), which keeps each cover piece no wider than one
// dependency's footprint inside rule — useful when the caller wants to drop
// individual pieces as dependencies disappear. Dependencies that do not
// overlap rule are ignored; with no overlapping dependencies the result is
// the single region {rule.Match}.
//
// The decomposition is the same cut machinery PartitionNewRule uses
// (Subtract/Intersect over nested prefixes), run from the evicted rule's
// side: for each dependency, carve out the part of the remaining region set
// that intersects it; whatever survives all dependencies is the remainder.
// The pieces are then minimized with MergeMatches, which preserves the
// union exactly.
func CoverFor(rule Rule, deps []Rule) []Match {
	remaining, spare := []Match{rule.Match}, []Match(nil)
	var pieces []Match
	for _, d := range deps {
		if !rule.Match.Overlaps(d.Match) {
			continue
		}
		spare = spare[:0]
		for _, reg := range remaining {
			if inter, ok := reg.Intersect(d.Match); ok {
				pieces = append(pieces, inter)
			}
			spare = reg.AppendSubtract(spare, d.Match)
		}
		remaining, spare = spare, remaining
	}
	var s mergeScratch
	return s.merge(append(pieces, remaining...))
}
