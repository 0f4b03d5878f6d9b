// tablewritebad.go is the tablewrite corpus: a twin of the agent's write
// path (core/write.go). Only the commit method inserts into or deletes from
// a carved table; a write anywhere else, called or handed around, is the
// seeded bug.
package core

import "hermes/internal/tcam"

type writer struct {
	shadow, main *tcam.Table
	add          []tcam.Rule
	stale        []uint64
}

// commit is the one writer, closures included: clean.
func (w *writer) commit() {
	for _, r := range w.add {
		w.shadow.InsertRanked(r, 1)
	}
	erase := func(ids []uint64) { w.shadow.DeleteAll(ids) }
	erase(w.stale)
	w.main.Delete(0)
}

// recut writes the shadow table itself.
func (w *writer) recut(r tcam.Rule) {
	w.shadow.Insert(r)    // want:tablewrite
	w.shadow.Delete(r.ID) // want:tablewrite
}

// drain hands a write out as a method value and a method expression.
func (w *writer) drain() (func([]uint64) (int, int), func(*tcam.Table, uint64) (int, bool)) {
	deleteAll := w.main.DeleteAll // want:tablewrite
	del := (*tcam.Table).Delete   // want:tablewrite
	return deleteAll, del
}

// plan only reads and queues: clean.
func (w *writer) plan(r tcam.Rule) int {
	w.add = append(w.add, r)
	return w.shadow.Len()
}

// commit as a free function is not the agent's commit method.
func commit(t *tcam.Table, r tcam.Rule) {
	t.InsertRanked(r, 0) // want:tablewrite
}
