package experiments

import "hash/fnv"

// Digest folds a rendered result into one FNV-1a value, the way the chaos
// and reconcile runs digest their traces: every experiment runs in virtual
// time on seeded input, so at a fixed scale identical digests ⇔
// byte-identical tables and notes. digests.txt commits one per registry ID
// and TestExperimentDigests fails when a value moves without the
// committed one moving in the same diff.
func Digest(r *Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.String()))
	return h.Sum64()
}
