// Package classifier is the hotpathalloc corpus: allocations hidden one
// and two calls below a //hermes:hotpath root, a root's own allocations,
// and an allocating Lookup that no annotation makes a root (clean).
package classifier

type Index struct {
	scratch []uint32
	table   map[uint32][]uint32
}

// expand allocates: one hop below the root.
func (ix *Index) expand(n int) {
	ix.scratch = append(ix.scratch, make([]uint32, n)...)
}

// widen launders the allocation through a second hop.
func (ix *Index) widen(n int) {
	ix.expand(n)
}

// Lookup is a zero-alloc root; both helper calls carry an allocation in.
//hermes:hotpath
func (ix *Index) Lookup(key uint32) ([]uint32, bool) {
	if len(ix.scratch) == 0 {
		ix.expand(8) // want:hotpathalloc
	}
	ix.widen(4) // want:hotpathalloc
	v, ok := ix.table[key]
	return v, ok
}

// LookupVia chains through another root: the callee justifies its budget.
//hermes:hotpath
func (ix *Index) LookupVia(key uint32) ([]uint32, bool) {
	return ix.Lookup(key)
}

// lookupSlow is a root that allocates in its own body.
//hermes:hotpath
func (ix *Index) lookupSlow(key uint32) []uint32 {
	out := make([]uint32, 0, 4)        // want:hotpathalloc
	out = append(out, ix.table[key]...) // want:hotpathalloc
	return out
}

// LookupLinear allocates like lookupSlow but carries no annotation: a name
// makes no root, so nothing here is flagged.
func (ix *Index) LookupLinear(key uint32) []uint32 {
	out := make([]uint32, 0, 4)
	return append(out, ix.table[key]...)
}
