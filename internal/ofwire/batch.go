package ofwire

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"hermes/internal/core"
)

// This file implements the vectored flow-mod path (DESIGN.md §15): N ops
// ride one TypeFlowModBatch frame under one XID, written like every other
// request frame with a single net.Conn write, and the server applies
// the whole batch under one agent-lock acquisition. Per-op outcomes come
// back in one TypeFlowModBatchReply. The client splits oversized batches
// transparently at MaxBatchOps so callers never see the 64KiB codec bound.
// SendEach is its per-op twin: the same group of ops, one TypeFlowMod
// frame each, awaited the same way.

// BatchResult is the controller-visible outcome of one op inside a batch.
// Err, when non-nil, is an *ErrorBody carrying the remote status code —
// classifiable exactly like a per-op error frame — or the wire error that
// lost the op's frame.
type BatchResult struct {
	Result FlowModResult
	Err    error
}

// ApplyBatch sends a mixed batch of flow-mods, applying the client's
// default request timeout to each frame individually (one frame per
// MaxBatchOps chunk).
func (c *Client) ApplyBatch(ops []FlowMod) ([]BatchResult, error) {
	return c.SendBatch(ops).Wait(context.Background())
}

// PendingBatch is a group of flow-mods whose frames SendBatch or SendEach
// has written and whose replies Wait collects.
type PendingBatch struct {
	c      *Client
	n      int    // ops in the group
	per    int    // ops per frame: MaxBatchOps, or 1 for flow-mod frames
	calls  []call // one per frame, in write order
	failed int    // frames lost on the wire, counted by Wait

	// left counts the frames still registered, plus one held while the
	// frames are written; done closes when it reaches zero or the group's
	// request timeout runs out (expiry), whichever comes first.
	left   atomic.Int32
	done   chan struct{}
	closed atomic.Bool
	expiry *time.Timer
	hook   func()       // OnDone's
	arrive atomic.Int32 // finish and OnDone arrive once each; the second runs hook

	// oneCall and oneResult back calls and Wait's results for a group of
	// one frame or one op, an idle switch's usual group, sparing the
	// group two allocations.
	oneCall   [1]call
	oneResult [1]BatchResult
}

// newPendingBatch starts a group of n ops, per ops to a frame.
func (c *Client) newPendingBatch(n, per int) *PendingBatch {
	b := &PendingBatch{c: c, n: n, per: per, done: make(chan struct{})}
	b.left.Store(1)
	b.calls = b.oneCall[:0]
	if frames := (n + per - 1) / per; frames > 1 {
		b.calls = make([]call, 0, frames)
	}
	return b
}

// SendBatch writes ops as flow-mod-batch frames, one per MaxBatchOps
// chunk, back to back, and returns without waiting for a reply: the caller
// may send its next batch before this one is answered. Ops apply strictly
// in slice order, across batches too, because the agent handles frames in
// arrival order and each frame's ops in order. Each frame carries the
// client's default request timeout, counted from its write. The ops are
// encoded before SendBatch returns, so the caller may reuse the slice.
func (c *Client) SendBatch(ops []FlowMod) *PendingBatch {
	b := c.newPendingBatch(len(ops), MaxBatchOps)
	timeout := c.RequestTimeout()
	for start := 0; start < len(ops); start += MaxBatchOps {
		b.send(&Message{
			Header:       Header{Type: TypeFlowModBatch},
			FlowModBatch: &FlowModBatch{Ops: ops[start:min(start+MaxBatchOps, len(ops))]},
		}, timeout)
	}
	return b.sent(timeout)
}

// SendEach is SendBatch with one flow-mod frame per op: the ops go out back
// to back, each with the default request timeout, and apply in slice
// order; Wait returns their results the same way.
func (c *Client) SendEach(ops []FlowMod) *PendingBatch {
	b := c.newPendingBatch(len(ops), 1)
	timeout := c.RequestTimeout()
	req := Message{Header: Header{Type: TypeFlowMod}}
	for i := range ops {
		req.FlowMod = &ops[i]
		b.send(&req, timeout)
	}
	return b.sent(timeout)
}

// send writes one frame of the group. A frame that cannot be written (the
// client failed or closed) is kept with its error, so Wait fails its ops.
func (b *PendingBatch) send(req *Message, timeout time.Duration) {
	cl, err := b.c.send(req, timeout, b)
	cl.err = err
	b.calls = append(b.calls, cl)
}

// sent ends the writing: it releases the count held meanwhile and starts
// the expiry clock.
func (b *PendingBatch) sent(timeout time.Duration) *PendingBatch {
	if timeout > 0 {
		b.expiry = time.AfterFunc(timeout, b.finish)
	}
	b.settle()
	return b
}

// settle counts one registered frame (or the writing) off; the last one
// closes done. Nil-safe: requests outside a group settle nothing.
func (b *PendingBatch) settle() {
	if b != nil && b.left.Add(-1) == 0 {
		b.finish()
	}
}

func (b *PendingBatch) finish() {
	if b.closed.CompareAndSwap(false, true) {
		close(b.done)
		if b.arrive.Add(1) == 2 {
			b.hook()
		}
	}
}

// OnDone runs f once Done has closed, on the goroutine that closes it (the
// read loop, the expiry timer) or, if it is closed already, on the caller,
// holding no client lock: f may call back into the client. Call it once.
func (b *PendingBatch) OnDone(f func()) {
	b.hook = f
	if b.arrive.Add(1) == 2 {
		f()
	}
}

// Done is closed once every frame of the group has its reply or has
// failed, or the group's request timeout has run out: Wait then returns
// without waiting for the switch. A caller that selects on Done can watch
// other channels while the group is in flight.
func (b *PendingBatch) Done() <-chan struct{} { return b.done }

// Wait awaits the group's replies in frame order, each bounded by ctx and
// its frame's deadline, and returns one result per op. A remote rejection
// lands in its op's slot (an error reply to a whole frame in each of its
// ops' slots) and is not an error of Wait's: the switch is alive. A frame
// lost on the wire — never written, cut by a reset, abandoned at its
// deadline or ctx, or answered with a reply that does not decode — puts
// its error in each of its ops' slots and counts in Failed; Wait returns
// the first such error. Every frame written is awaited either way, so none
// is left registered behind the caller.
func (b *PendingBatch) Wait(ctx context.Context) ([]BatchResult, error) {
	if b.expiry != nil {
		defer b.expiry.Stop()
	}
	if b.n == 0 {
		return nil, nil
	}
	results := b.oneResult[:]
	if b.n > 1 {
		results = make([]BatchResult, b.n)
	}
	var first error
	for i := range b.calls {
		slots := results[i*b.per : min((i+1)*b.per, b.n)]
		err := b.calls[i].err
		if err == nil {
			var resp *Message
			resp, err = b.c.await(ctx, &b.calls[i])
			err = b.decode(slots, resp, err)
		}
		if err != nil {
			b.failed++
			if first == nil {
				first = err
			}
			for j := range slots {
				slots[j].Err = err
			}
		}
	}
	return results, first
}

// Failed reports how many of the group's frames were lost on the wire;
// valid once Wait has returned.
func (b *PendingBatch) Failed() int { return b.failed }

// decode fills one frame's slots from its reply, or reports why the frame
// failed. An error reply is the remote verdict on every op of the frame.
func (b *PendingBatch) decode(slots []BatchResult, resp *Message, err error) error {
	if remote, ok := err.(*ErrorBody); ok { // as await returns it, unwrapped
		for j := range slots {
			slots[j].Err = remote
		}
		return nil
	}
	switch {
	case err != nil:
		return err
	case b.per == 1 && resp.Header.Type == TypeFlowModReply && resp.FlowModReply != nil:
		slots[0].Result = flowModResult(resp.FlowModReply)
		return nil
	case b.per > 1 && resp.Header.Type == TypeFlowModBatchReply && resp.FlowModBatchReply != nil:
		entries := resp.FlowModBatchReply.Entries
		if len(entries) != len(slots) {
			return fmt.Errorf("ofwire: batch reply carries %d entries for %d ops",
				len(entries), len(slots))
		}
		for j := range entries {
			slots[j] = BatchResult{Result: flowModResult(&entries[j].Reply), Err: entries[j].Err()}
		}
		return nil
	default:
		return fmt.Errorf("ofwire: unexpected reply %s", resp.Header.Type)
	}
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
