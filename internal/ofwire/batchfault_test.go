package ofwire

import (
	"net"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/faultinject"
	"hermes/internal/tcam"
)

// writeFaultConn routes writes through a faultinject-wrapped view of the
// connection while reads bypass the plan. The client and server read loops
// block in Read between frames (consuming fault decisions at unpredictable
// instants), so write-only injection is what makes a scripted schedule
// line up with specific frames: op k in the script is exactly the k-th
// frame written on this connection.
type writeFaultConn struct {
	net.Conn
	faulty net.Conn
}

func (c writeFaultConn) Write(b []byte) (int, error) { return c.faulty.Write(b) }

// faultyWriteListener wraps accepted server connections the same way.
type faultyWriteListener struct {
	net.Listener
	wire *faultinject.Wire
}

func (l faultyWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeFaultConn{Conn: c, faulty: l.wire.Wrap(c)}, nil
}

// TestBatchPartialWriteAppliesNothing: a connection crash mid-batch-frame
// must be atomic from the switch's perspective. The server only applies a
// batch after decoding the complete frame, so a write cut partway through
// the ops vector installs zero rules — there is no torn prefix of the
// batch left behind on the switch.
func TestBatchPartialWriteAppliesNothing(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Client write ops: [0] the hello reply, [1] the batch frame — cut at
	// 60%, well past the header and into the ops vector.
	wire := faultinject.NewWire(faultinject.WireConfig{Script: []faultinject.WireFault{
		{},
		{PartialFrac: 0.6},
	}})
	c, err := NewClient(writeFaultConn{Conn: raw, faulty: wire.Wrap(raw)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rules := make([]classifier.Rule, 200)
	for i := range rules {
		rules[i] = batchRule(i)
	}
	_, err = c.ApplyBatch(flowMods(FlowAdd, rules))
	if err == nil {
		t.Fatal("batch survived a mid-frame connection crash")
	}
	if got := wire.Counts().Partials; got != 1 {
		t.Fatalf("injected partials = %d, want 1", got)
	}

	// A fresh connection sees the atomicity contract: nothing applied.
	verify, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	st, err := verify.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 0 || st.ShadowOcc+st.MainOcc != 0 {
		t.Fatalf("torn batch applied: inserts=%d occupancy=%d",
			st.Inserts, st.ShadowOcc+st.MainOcc)
	}
}

// TestBatchResetBetweenSendAndReply: the reply-side reset is the ambiguous
// failure — the batch frame arrived intact and the switch applied every
// op, but the connection died before the reply reached the controller. The
// client must surface an error (it cannot know), and the switch must hold
// the applied state; resolving the ambiguity is the fleet resync's job.
func TestBatchResetBetweenSendAndReply(t *testing.T) {
	srv, err := NewAgentServer("tor-reset", tcam.Pica8P3290,
		core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Server write ops on the first connection: [0] hello, [1] the batch
	// reply — reset instead of delivering it.
	wire := faultinject.NewWire(faultinject.WireConfig{Script: []faultinject.WireFault{
		{},
		{Reset: true},
	}})
	go srv.Serve(faultyWriteListener{Listener: lis, wire: wire}) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRequestTimeout(2 * time.Second)

	rules := make([]classifier.Rule, 50)
	for i := range rules {
		rules[i] = batchRule(i)
	}
	if _, err := c.ApplyBatch(flowMods(FlowAdd, rules)); err == nil {
		t.Fatal("client observed success though the reply was reset away")
	}
	if got := wire.Counts().Resets; got != 1 {
		t.Fatalf("injected resets = %d, want 1", got)
	}

	// The switch applied the whole batch before the reply write failed:
	// the script is exhausted, so the verification connection is clean.
	verify, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	st, err := verify.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != uint64(len(rules)) || st.ShadowOcc+st.MainOcc != uint32(len(rules)) {
		t.Fatalf("applied state lost: inserts=%d occupancy=%d, want %d",
			st.Inserts, st.ShadowOcc+st.MainOcc, len(rules))
	}
	// The applied rules are live and owned: deleting them succeeds, which
	// is exactly how a resync would reconcile the ambiguity.
	for _, r := range rules {
		if _, err := verify.Delete(r.ID); err != nil {
			t.Fatalf("delete %d after ambiguous batch: %v", r.ID, err)
		}
	}
}
