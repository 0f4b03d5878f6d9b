package ofwire

import (
	"context"
	"errors"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
)

func TestCodecBatchRoundTrip(t *testing.T) {
	in := &Message{Header: Header{Type: TypeFlowModBatch, XID: 11}, FlowModBatch: &FlowModBatch{
		Ops: []FlowMod{
			{Command: FlowAdd, RuleID: 1, Priority: 9, DstAddr: 0x0a000000, DstLen: 8, Action: 1, Port: 3},
			{Command: FlowDelete, RuleID: 2},
			{Command: FlowModify, RuleID: 3, Priority: 4, SrcAddr: 0xc0a80000, SrcLen: 16},
		},
	}}
	got := roundTripMsg(t, in)
	if got.FlowModBatch == nil || len(got.FlowModBatch.Ops) != 3 {
		t.Fatalf("batch body = %+v", got.FlowModBatch)
	}
	for i, op := range got.FlowModBatch.Ops {
		if op != in.FlowModBatch.Ops[i] {
			t.Errorf("op %d changed: %+v vs %+v", i, op, in.FlowModBatch.Ops[i])
		}
	}

	rep := &Message{Header: Header{Type: TypeFlowModBatchReply, XID: 11}, FlowModBatchReply: &FlowModBatchReply{
		Entries: []BatchReplyEntry{
			{Reply: FlowModReply{RuleID: 1, LatencyNS: 2e6, Path: 0, Guaranteed: true, Partitions: 2}},
			{Code: ErrCodeUnknownRule, Reply: FlowModReply{RuleID: 2}},
			{Code: ErrCodeDuplicateRule, Reply: FlowModReply{RuleID: 3}},
		},
	}}
	back := roundTripMsg(t, rep)
	if back.FlowModBatchReply == nil || len(back.FlowModBatchReply.Entries) != 3 {
		t.Fatalf("reply body = %+v", back.FlowModBatchReply)
	}
	for i, e := range back.FlowModBatchReply.Entries {
		if e != rep.FlowModBatchReply.Entries[i] {
			t.Errorf("entry %d changed: %+v vs %+v", i, e, rep.FlowModBatchReply.Entries[i])
		}
	}
	if err := back.FlowModBatchReply.Entries[0].Err(); err != nil {
		t.Errorf("success entry error = %v", err)
	}
	var remote *ErrorBody
	if err := back.FlowModBatchReply.Entries[1].Err(); !errors.As(err, &remote) || remote.Code != ErrCodeUnknownRule {
		t.Errorf("error entry = %v", err)
	}
}

func TestCodecBatchOversized(t *testing.T) {
	fb := &FlowModBatch{Ops: make([]FlowMod, MaxBatchOps+1)}
	m := &Message{Header: Header{Type: TypeFlowModBatch}, FlowModBatch: fb}
	var sink discardWriter
	if err := WriteMessage(&sink, m); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized batch encoded: %v", err)
	}
	// Exactly MaxBatchOps must fit: the frame is the largest legal one.
	fb.Ops = fb.Ops[:MaxBatchOps]
	got := roundTripMsg(t, m)
	if len(got.FlowModBatch.Ops) != MaxBatchOps {
		t.Fatalf("max batch decoded %d ops", len(got.FlowModBatch.Ops))
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func batchRule(i int) classifier.Rule {
	return classifier.Rule{
		ID:       classifier.RuleID(i + 1),
		Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<12, 20)),
		Priority: int32(i%10 + 1),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
	}
}

// flowMods is the rules' wire form under one command, for ApplyBatch.
func flowMods(cmd FlowModCommand, rules []classifier.Rule) []FlowMod {
	ops := make([]FlowMod, len(rules))
	for i := range rules {
		ops[i] = *FlowModFromRule(cmd, rules[i])
	}
	return ops
}

func TestClientBatchEndToEnd(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	rules := make([]classifier.Rule, n)
	for i := range rules {
		rules[i] = batchRule(i)
	}
	results, err := c.ApplyBatch(flowMods(FlowAdd, rules))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("insert %d: %v", i, br.Err)
		}
	}

	// The batch landed: stats and a barrier agree with per-op semantics.
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != n {
		t.Errorf("stats inserts = %d, want %d", st.Inserts, n)
	}

	// Modify every rule, then delete every rule, all vectored.
	for i := range rules {
		rules[i].Action.Port = (rules[i].Action.Port + 1) % 48
	}
	results, err = c.ApplyBatch(flowMods(FlowModify, rules))
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("modify %d: %v", i, br.Err)
		}
	}
	dels := make([]classifier.Rule, n)
	for i := range dels {
		dels[i] = classifier.Rule{ID: rules[i].ID}
	}
	results, err = c.ApplyBatch(flowMods(FlowDelete, dels))
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("delete %d: %v", i, br.Err)
		}
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ShadowOcc+st.MainOcc != 0 {
		t.Errorf("occupancy after batched deletes = %d+%d", st.ShadowOcc, st.MainOcc)
	}
}

// TestClientBatchPerOpErrors exercises the per-slot error demux: failures
// are reported in their slot without stopping the batch, and ops observe
// earlier ops' effects in order (insert→delete of the same rule inside
// one frame both succeed). The per-op twin, SendEach, reports the same
// results in the same slots.
func TestClientBatchPerOpErrors(t *testing.T) {
	for name, send := range map[string]func(*Client, []FlowMod) *PendingBatch{
		"batch": (*Client).SendBatch, "each": (*Client).SendEach,
	} {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, core.Config{DisableRateLimit: true})
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if _, err := c.Insert(batchRule(0)); err != nil {
				t.Fatal(err)
			}
			ops := []FlowMod{
				*FlowModFromRule(FlowAdd, batchRule(1)),
				*FlowModFromRule(FlowAdd, batchRule(0)), // duplicate
				*FlowModFromRule(FlowDelete, classifier.Rule{ID: batchRule(1).ID}),
				*FlowModFromRule(FlowDelete, classifier.Rule{ID: 9999}), // unknown
				*FlowModFromRule(FlowAdd, batchRule(2)),
			}
			pb := send(c, ops)
			results, err := pb.Wait(context.Background())
			if err != nil || pb.Failed() != 0 {
				t.Fatalf("Wait = %v with %d frames failed; remote rejections are no frame failures", err, pb.Failed())
			}
			if len(results) != len(ops) {
				t.Fatalf("got %d results, want %d", len(results), len(ops))
			}
			var remote *ErrorBody
			if results[0].Err != nil {
				t.Errorf("op 0: %v", results[0].Err)
			}
			if !errors.As(results[1].Err, &remote) || remote.Code != ErrCodeDuplicateRule {
				t.Errorf("op 1 err = %v", results[1].Err)
			}
			if results[2].Err != nil {
				t.Errorf("op 2 (delete of op 0's insert) failed: %v", results[2].Err)
			}
			if !errors.As(results[3].Err, &remote) || remote.Code != ErrCodeUnknownRule {
				t.Errorf("op 3 err = %v", results[3].Err)
			}
			if results[4].Err != nil {
				t.Errorf("op 4: %v", results[4].Err)
			}
		})
	}
}

// TestClientBatchSplitsOversized proves the client chunks a batch larger
// than one 64KiB frame transparently: every op still gets exactly one
// result, in submission order.
func TestClientBatchSplitsOversized(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n := MaxBatchOps + 17 // forces a second frame
	rules := make([]classifier.Rule, n)
	for i := range rules {
		rules[i] = batchRule(i)
	}
	results, err := c.ApplyBatch(flowMods(FlowAdd, rules))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("insert %d: %v", i, br.Err)
		}
	}
	// Result order matches submission order across the chunk boundary:
	// deleting by the same IDs succeeds for every slot.
	dels := make([]classifier.Rule, n)
	for i := range dels {
		dels[i] = classifier.Rule{ID: rules[i].ID}
	}
	results, err = c.ApplyBatch(flowMods(FlowDelete, dels))
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("delete %d (chunk boundary at %d): %v", i, MaxBatchOps, br.Err)
		}
	}
}

func TestClientBatchEmpty(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.ApplyBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}
