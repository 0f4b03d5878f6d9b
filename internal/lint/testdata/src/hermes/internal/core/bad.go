// Package core is the snapshotsafety corpus: a twin of the agent's
// lock-free read path (core/view.go). A snapshot published through an
// atomic.Pointer is immutable — every write must happen before Store and
// none after Load, because concurrent readers hold the same pointer with
// no lock.
package core

import "sync/atomic"

// snapshot mirrors agentView: built fresh, published once, never written
// again.
type snapshot struct {
	gen  uint64
	hits int
	m    map[uint32]int
}

type agent struct {
	view atomic.Pointer[snapshot]
	gen  uint64
}

// resolve is the seeded read-path bug: a reader bumps a counter on the
// shared snapshot — a data race with every concurrent reader.
func (a *agent) resolve(dst uint32) int {
	v := a.view.Load()
	if v == nil {
		return -1
	}
	v.hits++ // want:snapshotsafety
	return v.m[dst]
}

// touch writes through its parameter; handing it a published snapshot is
// the same race one call removed.
func touch(s *snapshot) {
	s.gen++
}

// bump writes through its receiver.
func (s *snapshot) bump() {
	s.hits++
}

func (a *agent) refresh() {
	v := a.view.Load()
	if v == nil {
		return
	}
	touch(v)       // want:snapshotsafety
	v.bump()       // want:snapshotsafety
	delete(v.m, 0) // want:snapshotsafety
}

// rebuild is the clean pattern: build a fresh snapshot, finish every
// write, Store last.
func (a *agent) rebuild(gen uint64) *snapshot {
	v := &snapshot{gen: gen, m: make(map[uint32]int)}
	v.hits = 0
	a.view.Store(v)
	return v
}

// lateWrite publishes first and writes after: readers already hold v.
func (a *agent) lateWrite(gen uint64) {
	v := &snapshot{gen: gen}
	a.view.Store(v)
	v.hits = 1 // want:snapshotsafety
}

// current launders the published pointer through a helper return.
func (a *agent) current() *snapshot {
	return a.view.Load()
}

func (a *agent) laundered() {
	v := a.current()
	if v == nil {
		return
	}
	v.hits++ // want:snapshotsafety
}

// reseat rebinds the local to a fresh value before writing: the dataflow
// kill keeps this clean.
func (a *agent) reseat() *snapshot {
	v := a.view.Load()
	v = &snapshot{m: map[uint32]int{}}
	v.hits++
	return v
}

// publishThenFill stores the view before its optional tier is filled in,
// so the fill races every reader that loaded it.
func (a *agent) publishThenFill(prev *snapshot, gen uint64, track bool) {
	v := &snapshot{gen: gen}
	a.view.Store(v)
	if track {
		if v.m = prev.m; prev.gen != gen { // want:snapshotsafety
			v.hits = 0 // want:snapshotsafety
		}
	}
}
