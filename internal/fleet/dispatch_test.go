package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/testutil"
)

// frameAgent is a scripted agent for the dispatch tests: it accepts one
// control channel and hands every flow-mod-batch frame it reads to the
// test, which answers (or never answers) when it likes.
type frameAgent struct {
	addr   string
	conn   chan net.Conn // the accepted connection, once
	frames chan *ofwire.Message
}

func startFrameAgent(t *testing.T) *frameAgent {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	a := &frameAgent{
		addr:   lis.Addr().String(),
		conn:   make(chan net.Conn, 1),
		frames: make(chan *ofwire.Message, 64),
	}
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		a.conn <- conn
		if ofwire.WriteMessage(conn, &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeHello}}) != nil {
			return
		}
		for {
			req, err := ofwire.ReadMessage(conn)
			if err != nil {
				return
			}
			if req.Header.Type == ofwire.TypeFlowModBatch {
				a.frames <- req
			}
		}
	}()
	return a
}

// next returns the next frame the agent read, failing the test if none
// arrives within five seconds.
func (a *frameAgent) next(t *testing.T) *ofwire.Message {
	t.Helper()
	select {
	case req := <-a.frames:
		return req
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the agent")
		return nil
	}
}

// none fails the test if a frame reaches the agent within d.
func (a *frameAgent) none(t *testing.T, d time.Duration, why string) {
	t.Helper()
	select {
	case req := <-a.frames:
		t.Fatalf("frame of %d ops reached the agent %s", len(req.FlowModBatch.Ops), why)
	case <-time.After(d):
	}
}

// answer replies to a frame with one successful entry per op.
func (a *frameAgent) answer(t *testing.T, conn net.Conn, req *ofwire.Message) {
	t.Helper()
	entries := make([]ofwire.BatchReplyEntry, len(req.FlowModBatch.Ops))
	for i, o := range req.FlowModBatch.Ops {
		entries[i].Reply = ofwire.FlowModReply{RuleID: o.RuleID, LatencyNS: 1, Guaranteed: true}
	}
	if err := ofwire.WriteMessage(conn, &ofwire.Message{
		Header:            ofwire.Header{Type: ofwire.TypeFlowModBatchReply, XID: req.Header.XID},
		FlowModBatchReply: &ofwire.FlowModBatchReply{Entries: entries},
	}); err != nil {
		t.Fatal(err)
	}
}

// ruleIDs lists a frame's rule IDs in op order.
func ruleIDs(req *ofwire.Message) []classifier.RuleID {
	ids := make([]classifier.RuleID, len(req.FlowModBatch.Ops))
	for i, o := range req.FlowModBatch.Ops {
		ids[i] = classifier.RuleID(o.RuleID)
	}
	return ids
}

func insertAll(t *testing.T, f *Fleet, sw string, from, to int) []<-chan OpResult {
	t.Helper()
	var chans []<-chan OpResult
	for i := from; i <= to; i++ {
		ch, err := f.InsertAsync(sw, testRule(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	return chans
}

// TestFleetWireBatchIdleFlush: an op queued on an idle switch goes out at
// once. BatchLinger only bounds coalescing while a frame is in flight, so
// a five-second linger costs a lone insert nothing.
func TestFleetWireBatchIdleFlush(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	f, err := New(Config{WireBatch: true, BatchSize: 64, BatchLinger: 5 * time.Second}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a lone insert on an idle switch took %v: it waited out the linger", took)
	}
}

// TestFleetWireBatchTwoFramesAtMost: with two frames unanswered the worker
// writes nothing more; the ops queued meanwhile coalesce, and the third
// frame goes out, full, the moment the agent answers the first.
func TestFleetWireBatchTwoFramesAtMost(t *testing.T) {
	a := startFrameAgent(t)
	f, err := New(Config{
		WireBatch: true, BatchSize: 4, BatchLinger: 5 * time.Second,
		ProbeInterval: time.Hour,
	}, []SwitchSpec{{ID: "slow", Addr: a.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	conn := <-a.conn

	chans := insertAll(t, f, "slow", 1, 1)
	first := a.next(t) // idle switch: the lone op goes at once
	chans = append(chans, insertAll(t, f, "slow", 2, 5)...)
	second := a.next(t) // one in flight: sent when BatchSize ops are queued
	chans = append(chans, insertAll(t, f, "slow", 6, 11)...)
	a.none(t, 100*time.Millisecond, "with two frames unanswered")

	a.answer(t, conn, first)
	third := a.next(t)
	a.answer(t, conn, second)
	a.answer(t, conn, third)
	fourth := a.next(t)
	a.answer(t, conn, fourth)

	got := [][]classifier.RuleID{ruleIDs(first), ruleIDs(second), ruleIDs(third), ruleIDs(fourth)}
	want := "[[1] [2 3 4 5] [6 7 8 9] [10 11]]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("frames carried %s, want %s", s, want)
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("insert %d: %v", i+1, res.Err)
		}
	}
}

// TestFleetWireBatchResetFailsBothFramesInOrder: a connection reset with
// two frames in flight completes every op of both, and the ops queued
// behind them, with an error — and OnResult still sees them in submit
// order. The switch may have applied either frame; that is the
// reconciler's to find out.
func TestFleetWireBatchResetFailsBothFramesInOrder(t *testing.T) {
	a := startFrameAgent(t)
	var mu sync.Mutex
	var seen []classifier.RuleID
	f, err := New(Config{
		WireBatch: true, BatchSize: 4, BatchLinger: 5 * time.Second,
		ProbeInterval: time.Hour,
		OnResult: func(res OpResult) {
			mu.Lock()
			seen = append(seen, res.RuleID)
			mu.Unlock()
		},
	}, []SwitchSpec{{ID: "reset", Addr: a.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	conn := <-a.conn

	chans := insertAll(t, f, "reset", 1, 1)
	a.next(t)
	chans = append(chans, insertAll(t, f, "reset", 2, 5)...)
	a.next(t)
	chans = append(chans, insertAll(t, f, "reset", 6, 8)...) // queued behind both
	conn.Close()

	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Fatalf("insert %d succeeded through a reset", i+1)
			}
			var remote *ofwire.ErrorBody
			if errors.As(res.Err, &remote) {
				t.Fatalf("insert %d: remote rejection %v from a switch that never answered", i+1, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("insert %d never completed after the reset", i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range seen {
		if id != classifier.RuleID(i+1) {
			t.Fatalf("OnResult order %v, want submit order", seen)
		}
	}
	if len(seen) != len(chans) {
		t.Fatalf("OnResult fired %d times for %d ops", len(seen), len(chans))
	}
}

// TestFleetObsExposesQueueAndFrames: the per-switch dispatch series are on
// the registry, labelled with the switch: queue depth, frames in flight,
// ops per frame written, and the queue wait, sampled one push in 8 from the
// first.
func TestFleetObsExposesQueueAndFrames(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	reg := obs.NewRegistry()
	f, err := New(Config{WireBatch: true, Obs: reg, ProbeInterval: time.Hour}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`hermes_fleet_queue_depth{switch="sw-0"} 0`,
		`hermes_fleet_frames_in_flight{switch="sw-0"} 0`,
		`hermes_fleet_frame_ops_count{switch="sw-0"} 1`,
		`hermes_fleet_frame_ops_sum{switch="sw-0"} 1`,
		`hermes_fleet_queue_wait_ns_count{switch="sw-0"} 1`,
	} {
		if !strings.Contains(sb.String(), series+"\n") {
			t.Errorf("scrape lacks %q", series)
		}
	}
}

// TestFleetCircuitOpenFailsInSubmitOrder: an op submitted while the circuit
// is open fails behind the ops still in flight ahead of it, not on the
// submitter's goroutine ahead of them, so OnResult keeps the switch's
// submit order and one call at a time. A and B go out to an agent that
// never answers and time out, opening the circuit; C waits for a slot
// meanwhile, and D comes once the circuit is open.
func TestFleetCircuitOpenFailsInSubmitOrder(t *testing.T) {
	a := startFrameAgent(t)
	var mu sync.Mutex
	var seen []classifier.RuleID
	f, err := New(Config{
		WireBatch: true, BatchSize: 1, OpTimeout: 100 * time.Millisecond,
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		OnResult: func(res OpResult) {
			mu.Lock()
			seen = append(seen, res.RuleID)
			mu.Unlock()
		},
	}, []SwitchSpec{{ID: "mute", Addr: a.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	<-a.conn

	chans := insertAll(t, f, "mute", 1, 3)
	waitUntil(t, "the circuit to open", func() bool {
		st, _ := f.BreakerState("mute")
		return st == BreakerOpen
	})
	chans = append(chans, insertAll(t, f, "mute", 4, 4)...)
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Fatalf("insert %d succeeded on a switch that never answers", i+1)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("insert %d never completed", i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := fmt.Sprint(seen); got != "[1 2 3 4]" {
		t.Fatalf("OnResult saw %s, want submit order [1 2 3 4]", got)
	}
}
