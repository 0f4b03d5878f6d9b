package lint

import (
	"go/ast"
)

// This file is the forward-dataflow half of the hermes-vet engine: a
// worklist solver over the CFGs of cfg.go, generic in the fact type. Facts
// are sets met by intersection where edges merge (a must-analysis: a fact
// holds only if it held on every incoming edge, like "this mutex is
// definitely held"); an analysis supplies a per-node transfer function,
// which is the statement-granular form of the classic gen/kill formulation.

// Set is a fact set over any comparable element.
type Set[E comparable] map[E]struct{}

// NewSet builds a set from its elements.
func NewSet[E comparable](elems ...E) Set[E] {
	s := make(Set[E], len(elems))
	for _, e := range elems {
		s[e] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s Set[E]) Has(e E) bool { _, ok := s[e]; return ok }

// Add inserts an element.
func (s Set[E]) Add(e E) { s[e] = struct{}{} }

// Del removes an element.
func (s Set[E]) Del(e E) { delete(s, e) }

// Clone copies the set; a nil receiver (the lattice top) clones to nil.
func (s Set[E]) Clone() Set[E] {
	if s == nil {
		return nil
	}
	out := make(Set[E], len(s))
	for e := range s {
		out[e] = struct{}{}
	}
	return out
}

// Equal reports element-wise equality; nil (top) only equals nil.
func (s Set[E]) Equal(o Set[E]) bool {
	if (s == nil) != (o == nil) || len(s) != len(o) {
		return false
	}
	for e := range s {
		if _, ok := o[e]; !ok {
			return false
		}
	}
	return true
}

// meet intersects two fact sets where control-flow edges merge.
func meet[E comparable](a, b Set[E]) Set[E] {
	// nil is the "unvisited" top element: it is the identity, because an
	// unexplored path constrains nothing yet.
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a
	}
	for e := range a {
		if !b.Has(e) {
			a.Del(e)
		}
	}
	return a
}

// Transfer mutates (and returns) the in-set for one CFG node. The solver
// hands each transfer its own copy, so implementations may mutate freely.
type Transfer[E comparable] func(n ast.Node, in Set[E]) Set[E]

// FlowResult carries the fixed point: the fact set at entry and exit of
// every block.
type FlowResult[E comparable] struct {
	In  map[*Block]Set[E]
	Out map[*Block]Set[E]
}

// Replay walks the reached blocks of cfg, calling visit with the fact set
// in force immediately *before* each node — how analyzers report at the
// offending statement rather than at block granularity. visit must not
// keep the set: the next transfer mutates it.
func (r *FlowResult[E]) Replay(cfg *CFG, transfer Transfer[E], visit func(n ast.Node, before Set[E])) {
	for _, b := range cfg.Blocks {
		if !b.Reachable() || r.In[b] == nil {
			continue
		}
		state := r.In[b].Clone()
		for _, n := range b.Nodes {
			visit(n, state)
			state = transfer(n, state)
		}
	}
}

// Forward solves a forward dataflow problem to its fixed point with a
// worklist. boundary is the fact set at function entry. Unreachable blocks
// keep nil (top) in/out sets.
func Forward[E comparable](cfg *CFG, boundary Set[E], transfer Transfer[E]) *FlowResult[E] {
	res := &FlowResult[E]{
		In:  make(map[*Block]Set[E], len(cfg.Blocks)),
		Out: make(map[*Block]Set[E], len(cfg.Blocks)),
	}
	res.In[cfg.Entry] = boundary.Clone()
	if res.In[cfg.Entry] == nil {
		res.In[cfg.Entry] = NewSet[E]()
	}

	inQueue := make(map[*Block]bool, len(cfg.Blocks))
	queue := []*Block{cfg.Entry}
	inQueue[cfg.Entry] = true

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b] = false

		in := res.In[b]
		if b != cfg.Entry {
			in = nil
			for _, p := range b.Preds {
				in = meet(in, res.Out[p])
			}
			res.In[b] = in
		}
		if in == nil {
			// Still unreached; revisit when a predecessor produces facts.
			continue
		}
		out := in.Clone()
		for _, n := range b.Nodes {
			out = transfer(n, out)
		}
		if out.Equal(res.Out[b]) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			if !inQueue[s] {
				inQueue[s] = true
				queue = append(queue, s)
			}
		}
	}
	return res
}
