package core

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
)

// This file is the agent's vectored entry point (DESIGN.md §15): a whole
// batch of ops applies under ONE control-plane lock acquisition with ONE
// advance(), replacing per-op lock round trips, so a reader sees a batch
// whole or not at all. Each op takes exactly the path its per-op entry point
// takes (insertOp/deleteOp/modifyOp).

// BatchKind selects the operation of one BatchOp.
type BatchKind uint8

// Batch op kinds.
const (
	BatchInsert BatchKind = iota + 1
	BatchDelete
	BatchModify
)

// BatchOp is one operation inside a batch. Delete uses only Rule.ID.
type BatchOp struct {
	Kind BatchKind
	Rule classifier.Rule
}

// BatchResult is the outcome of one batch op: exactly what the per-op
// entry point would have returned.
type BatchResult struct {
	Res Result
	Err error
}

// ApplyBatch applies a mixed batch in order under one lock acquisition.
// Per-op semantics are identical to calling Insert/Delete/Modify per op at
// the same virtual time: ops see each other's effects in order, each failure
// is reported in its slot without stopping the batch. out, when non-nil, is
// reset and reused as the result buffer (callers on the hot path pass the
// slice the previous call returned, so the batch itself allocates nothing);
// the returned slice has one entry per op.
func (a *Agent) ApplyBatch(now time.Duration, ops []BatchOp, out []BatchResult) []BatchResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	if cap(out) < len(ops) {
		out = make([]BatchResult, 0, len(ops))
	}
	out = out[:0]
	for i := range ops {
		var res Result
		var err error
		switch ops[i].Kind {
		case BatchInsert:
			res, err = a.insertOp(now, ops[i].Rule)
		case BatchDelete:
			res, err = a.deleteOp(now, ops[i].Rule.ID)
		case BatchModify:
			res, err = a.modifyOp(now, ops[i].Rule)
		default:
			err = fmt.Errorf("core: unknown batch op kind %d", ops[i].Kind)
		}
		out = append(out, BatchResult{Res: res, Err: err})
	}
	return out
}
