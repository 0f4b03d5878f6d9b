package ofwire

import (
	"context"
	"fmt"
	"time"

	"hermes/internal/core"
)

// This file implements the vectored flow-mod path (DESIGN.md §15): N ops
// ride one TypeFlowModBatch frame under one XID, written like every other
// request frame with a single net.Conn write, and the server applies
// the whole batch under one agent-lock acquisition. Per-op outcomes come
// back in one TypeFlowModBatchReply. The client splits oversized batches
// transparently at MaxBatchOps so callers never see the 64KiB codec bound.
//
// Batch ops do not run through the FlowLifecycle observer: the per-XID
// submitted/completed pairing is a per-op wire concept, and batch callers
// get every per-op outcome from the slice Wait returns instead.

// BatchResult is the controller-visible outcome of one op inside a batch.
// Err, when non-nil, is an *ErrorBody carrying the remote status code —
// classifiable exactly like a per-op error frame.
type BatchResult struct {
	Result FlowModResult
	Err    error
}

// ApplyBatch sends a mixed batch of flow-mods, applying the client's
// default request timeout to each frame individually (one frame per
// MaxBatchOps chunk).
func (c *Client) ApplyBatch(ops []FlowMod) ([]BatchResult, error) {
	return c.ApplyBatchCtx(context.Background(), ops)
}

// ApplyBatchCtx is SendBatch followed by Wait(ctx): bounded by the
// context's deadline, layered with the client's default per-request
// timeout per frame.
func (c *Client) ApplyBatchCtx(ctx context.Context, ops []FlowMod) ([]BatchResult, error) {
	return c.SendBatch(ops).Wait(ctx)
}

// PendingBatch is a batch whose frames SendBatch has written and whose
// replies Wait collects.
type PendingBatch struct {
	c     *Client
	n     int    // ops in the batch
	calls []call // one per frame written, in order
	err   error  // the send error that cut the batch short, if any
}

// SendBatch writes ops as flow-mod-batch frames, one per MaxBatchOps
// chunk, back to back, and returns without waiting for a reply: the caller
// may send its next batch before this one is answered. Ops apply strictly
// in slice order, across batches too, because the agent handles frames in
// arrival order and each frame's ops in order. Each frame carries the
// client's default request timeout, counted from its write. A send error
// stops the batch; Wait reports it after the frames already written.
func (c *Client) SendBatch(ops []FlowMod) *PendingBatch {
	b := &PendingBatch{c: c, n: len(ops)}
	if len(ops) == 0 {
		return b
	}
	timeout := c.RequestTimeout()
	b.calls = make([]call, 0, (len(ops)+MaxBatchOps-1)/MaxBatchOps)
	for start := 0; start < len(ops); start += MaxBatchOps {
		cl, err := c.send(&Message{
			Header:       Header{Type: TypeFlowModBatch},
			FlowModBatch: &FlowModBatch{Ops: ops[start:min(start+MaxBatchOps, len(ops))]},
		}, timeout)
		if err != nil {
			b.err = err
			break
		}
		b.calls = append(b.calls, cl)
	}
	return b
}

// Wait awaits the batch's replies in frame order, each bounded by ctx and
// its frame's deadline. On a wire or decode error the results decided so
// far are returned with the error; the caller cannot assume anything about
// the remainder. Every frame written is awaited either way, so none is
// left registered behind the caller.
func (b *PendingBatch) Wait(ctx context.Context) ([]BatchResult, error) {
	if b.n == 0 {
		return nil, nil
	}
	results := make([]BatchResult, 0, b.n)
	var first error
	for i := range b.calls {
		resp, err := b.c.await(ctx, &b.calls[i])
		if first == nil {
			chunk := min(MaxBatchOps, b.n-i*MaxBatchOps)
			results, first = appendBatchResults(results, chunk, resp, err)
		}
	}
	if first == nil {
		first = b.err
	}
	return results, first
}

// appendBatchResults decodes the reply to one frame of chunk ops onto
// results.
func appendBatchResults(results []BatchResult, chunk int, resp *Message, err error) ([]BatchResult, error) {
	if err != nil {
		return results, err
	}
	if resp.Header.Type != TypeFlowModBatchReply || resp.FlowModBatchReply == nil {
		return results, fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
	entries := resp.FlowModBatchReply.Entries
	if len(entries) != chunk {
		return results, fmt.Errorf("ofwire: batch reply carries %d entries for %d ops",
			len(entries), chunk)
	}
	for _, e := range entries {
		results = append(results, BatchResult{
			Result: FlowModResult{
				Latency:    time.Duration(e.Reply.LatencyNS),
				Path:       core.InsertPath(e.Reply.Path),
				Guaranteed: e.Reply.Guaranteed,
				Violation:  e.Reply.Violation,
				Partitions: int(e.Reply.Partitions),
			},
			Err: e.Err(),
		})
	}
	return results, nil
}

// doFlowModBatch applies one vectored flow-mod frame: the whole batch runs
// under a single server-lock acquisition (and a single agent-lock round
// trip inside core.Agent.ApplyBatch), which is the point — per-op lock and
// snapshot costs are amortized across the frame. Per-op failures become
// status codes in the reply; a frame-level Error is reserved for malformed
// batches.
func (s *AgentServer) doFlowModBatch(req *Message) *Message {
	if req.FlowModBatch == nil {
		return errorMsg(ErrCodeBadRequest, "empty flow-mod-batch")
	}
	ops := req.FlowModBatch.Ops
	batch := make([]core.BatchOp, len(ops))
	for i := range ops {
		var kind core.BatchKind
		switch ops[i].Command {
		case FlowAdd:
			kind = core.BatchInsert
		case FlowDelete:
			kind = core.BatchDelete
		case FlowModify:
			kind = core.BatchModify
		default:
			return errorMsg(ErrCodeBadRequest, "unknown flow-mod command in batch")
		}
		batch[i] = core.BatchOp{Kind: kind, Rule: ops[i].Rule()}
	}
	s.mu.Lock()
	results := s.agent.ApplyBatch(s.now(), batch, nil)
	s.mu.Unlock()
	entries := make([]BatchReplyEntry, len(ops))
	for i, br := range results {
		if br.Err != nil {
			entries[i].Code = errCodeFor(br.Err)
			entries[i].Reply.RuleID = ops[i].RuleID
			continue
		}
		entries[i].Reply = FlowModReply{
			RuleID:     ops[i].RuleID,
			LatencyNS:  uint64(br.Res.Latency),
			Path:       clampU8(int(br.Res.Path)),
			Guaranteed: br.Res.Guaranteed,
			Violation:  br.Res.Violation,
			Partitions: clampU8(br.Res.Partitions),
		}
	}
	return &Message{
		Header:            Header{Type: TypeFlowModBatchReply},
		FlowModBatchReply: &FlowModBatchReply{Entries: entries},
	}
}
