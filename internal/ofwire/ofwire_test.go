package ofwire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/predict"
	"hermes/internal/tcam"
	"hermes/internal/testutil"
)

func roundTripMsg(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestCodecHelloAndBarrier(t *testing.T) {
	for _, typ := range []MsgType{TypeHello, TypeBarrierRequest, TypeBarrierReply, TypeStatsRequest} {
		m := &Message{Header: Header{Type: typ, XID: 42}}
		got := roundTripMsg(t, m)
		if got.Header.Type != typ || got.Header.XID != 42 {
			t.Errorf("%s: header mismatch %+v", typ, got.Header)
		}
	}
}

func TestCodecEchoPayload(t *testing.T) {
	m := &Message{Header: Header{Type: TypeEchoRequest, XID: 7}, Raw: []byte("ping!")}
	got := roundTripMsg(t, m)
	if string(got.Raw) != "ping!" {
		t.Errorf("payload = %q", got.Raw)
	}
}

func TestCodecFlowModRoundTrip(t *testing.T) {
	f := func(id uint64, prio int32, dst uint32, dlen uint8, src uint32, slen uint8, action uint8, port uint16) bool {
		dlen %= 33
		slen %= 33
		if action > 3 {
			action %= 4
		}
		in := &Message{Header: Header{Type: TypeFlowMod, XID: 1}, FlowMod: &FlowMod{
			Command: FlowAdd, RuleID: id, Priority: prio,
			DstAddr: dst & maskFor(dlen), DstLen: dlen,
			SrcAddr: src & maskFor(slen), SrcLen: slen,
			Action: action, Port: port,
		}}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, in); err != nil {
			return false
		}
		out, err := ReadMessage(&buf)
		if err != nil || out.FlowMod == nil {
			return false
		}
		return *out.FlowMod == *in.FlowMod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func maskFor(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

func TestCodecStatsAndQoS(t *testing.T) {
	s := &Stats{
		Inserts: 1, ShadowInserts: 2, MainInserts: 3, Bypasses: 4,
		Violations: 5, Migrations: 6, ShadowOcc: 7, MainOcc: 8,
		ShadowSize: 9, OverheadPPM: 31415, MaxRateMilli: 1234567,
	}
	got := roundTripMsg(t, &Message{Header: Header{Type: TypeStatsReply}, Stats: s})
	if *got.Stats != *s {
		t.Errorf("stats = %+v", got.Stats)
	}
	q := &QoSReply{ShadowEntries: 129, OverheadPPM: 31000, MaxRateMilli: 1154000, GuaranteeNS: 5e6}
	got = roundTripMsg(t, &Message{Header: Header{Type: TypeQoSReply}, QoSReply: q})
	if *got.QoSReply != *q {
		t.Errorf("qos = %+v", got.QoSReply)
	}
	qr := &QoSRequest{GuaranteeNS: 5e6}
	got = roundTripMsg(t, &Message{Header: Header{Type: TypeQoSRequest}, QoSRequest: qr})
	if got.QoSRequest.Guarantee() != 5*time.Millisecond {
		t.Errorf("qos request = %+v", got.QoSRequest)
	}
}

func TestCodecError(t *testing.T) {
	e := &ErrorBody{Code: ErrCodeTableFull, Reason: "tcam: table full"}
	got := roundTripMsg(t, &Message{Header: Header{Type: TypeError}, Error: e})
	if got.Error.Code != e.Code || got.Error.Reason != e.Reason {
		t.Errorf("error = %+v", got.Error)
	}
	if got.Error.Error() == "" {
		t.Error("empty error string")
	}
}

func TestCodecRejectsBadFrames(t *testing.T) {
	// Bad version.
	raw := []byte{99, byte(TypeHello), 0, 8, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version err = %v", err)
	}
	// Truncated body.
	raw = []byte{Version, byte(TypeFlowMod), 0, 12, 0, 0, 0, 1, 1, 2, 3, 4}
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated err = %v", err)
	}
	// Length below header size.
	raw = []byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short length err = %v", err)
	}
	// Unknown type.
	raw = []byte{Version, 200, 0, 8, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type err = %v", err)
	}
	// EOF mid-header.
	if _, err := ReadMessage(bytes.NewReader([]byte{Version, 1})); err == nil {
		t.Error("mid-header EOF accepted")
	}
	// Writing an unknown type fails.
	if err := WriteMessage(io.Discard, &Message{Header: Header{Type: 250}}); err == nil {
		t.Error("unknown type written")
	}
	// Bodyless flow-mod fails.
	if err := WriteMessage(io.Discard, &Message{Header: Header{Type: TypeFlowMod}}); err == nil {
		t.Error("bodyless flow-mod written")
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ := TypeHello; typ <= TypeRulesReply; typ++ {
		if typ.String() == "" {
			t.Errorf("type %d has empty string", typ)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type string")
	}
}

// startServer launches an AgentServer on a loopback listener.
func startServer(t *testing.T, cfg core.Config) (*AgentServer, string) {
	t.Helper()
	// Armed before the server cleanup below so it runs after it (LIFO):
	// the tick loop, accept loop and every connection handler must be
	// gone once the server is closed.
	testutil.VerifyNoLeaks(t)
	if cfg.Guarantee == 0 {
		cfg.Guarantee = 5 * time.Millisecond
	}
	srv, err := NewAgentServer("tor-1", tcam.Pica8P3290, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func TestClientServerEndToEnd(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Echo.
	if got, err := c.Echo([]byte("hello")); err != nil || string(got) != "hello" {
		t.Fatalf("echo = %q, %v", got, err)
	}

	// Insert rules; verify guarantees end to end.
	for i := 0; i < 50; i++ {
		r := classifier.Rule{
			ID:       classifier.RuleID(i + 1),
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<16|0x0A000000, 24)),
			Priority: int32(i%10 + 1),
			Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
		}
		res, err := c.Insert(r)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if !res.Guaranteed {
			t.Fatalf("insert %d not guaranteed: %+v", i, res)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Stats reflect the inserts.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 50 {
		t.Errorf("stats inserts = %d", st.Inserts)
	}
	if st.ShadowSize == 0 || st.OverheadPPM == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Duplicate insert surfaces the typed remote error.
	_, err = c.Insert(classifier.Rule{ID: 1, Match: classifier.DstMatch(classifier.MustParsePrefix("10.0.0.0/8"))})
	var remote *ErrorBody
	if !errors.As(err, &remote) || remote.Code != ErrCodeDuplicateRule {
		t.Errorf("duplicate err = %v", err)
	}

	// Delete and unknown-delete.
	if _, err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(9999); err == nil {
		t.Error("unknown delete succeeded")
	}

	// Modify.
	r := classifier.Rule{
		ID:       2,
		Match:    classifier.DstMatch(classifier.NewPrefix(1<<16|0x0A000000, 24)),
		Priority: 2,
		Action:   classifier.Action{Type: classifier.ActionDrop},
	}
	if _, err := c.Modify(r); err != nil {
		t.Fatalf("modify: %v", err)
	}
	got, ok := srv.Agent().Lookup(1<<16|0x0A000000|5, 0)
	if !ok || got.Action.Type != classifier.ActionDrop {
		t.Errorf("server-side rule after modify = %v, %v", got, ok)
	}
}

func TestClientServerQoSRenegotiation(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.RequestQoS(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tight := rep.ShadowEntries
	rep, err = c.RequestQoS(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShadowEntries <= tight {
		t.Errorf("looser guarantee shadow %d not above tighter %d", rep.ShadowEntries, tight)
	}
	// Infeasible request surfaces the typed error and keeps the agent
	// alive.
	if _, err := c.RequestQoS(time.Nanosecond); err == nil {
		t.Error("infeasible QoS accepted")
	}
	if _, err := c.Echo([]byte("still-alive")); err != nil {
		t.Errorf("channel dead after QoS failure: %v", err)
	}
}

// resetCounter is a predictor that counts its Resets.
type resetCounter struct {
	predict.Predictor
	resets atomic.Int32
}

func (p *resetCounter) Reset() {
	p.resets.Add(1)
	p.Predictor.Reset()
}

// TestQoSRecarveResetsPredictor: a re-carve over the wire clears a
// caller-supplied predictor's history exactly as Registry.ModQoSConfig
// does, feasible and infeasible guarantees alike.
func TestQoSRecarveResetsPredictor(t *testing.T) {
	wire := &resetCounter{Predictor: predict.NewEWMA(0.5)}
	_, addr := startServer(t, core.Config{DisableRateLimit: true, Predictor: wire})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	local := &resetCounter{Predictor: predict.NewEWMA(0.5)}
	reg := core.NewRegistry()
	id, _, err := reg.CreateTCAMQoSWithConfig(tcam.NewSwitch("tor-2", tcam.Pica8P3290),
		core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true, Predictor: local})
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []time.Duration{10 * time.Millisecond, time.Nanosecond} {
		_, werr := c.RequestQoS(g)
		ok := reg.ModQoSConfig(id, g)
		if (werr == nil) != ok {
			t.Fatalf("%v: wire err %v, registry ok %v", g, werr, ok)
		}
		if w, l := wire.resets.Load(), local.resets.Load(); w != l || w == 0 {
			t.Fatalf("%v: wire re-carve reset the predictor %d times, the registry's %d", g, w, l)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	const clients = 4
	const perClient = 30
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		go func() {
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < perClient; i++ {
				r := classifier.Rule{
					ID:       classifier.RuleID(ci*1000 + i + 1),
					Match:    classifier.DstMatch(classifier.NewPrefix(rng.Uint32(), 24)),
					Priority: int32(rng.Intn(50) + 1),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
				}
				if _, err := c.Insert(r); err != nil {
					errs <- err
					return
				}
			}
			errs <- c.Barrier()
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Agent().Metrics().Inserts; got != clients*perClient {
		t.Errorf("inserts = %d, want %d", got, clients*perClient)
	}
}

func TestServerRejectsNonHello(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Read server hello, then send garbage type first.
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(conn, &Message{Header: Header{Type: TypeEchoRequest}}); err != nil {
		t.Fatal(err)
	}
	// Server closes the channel.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadMessage(conn); err == nil {
		t.Error("server kept a channel that never helloed")
	}
}

// TestDecodeNeverPanics feeds random frames to the decoder: malformed
// input must produce errors, never panics.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		raw := make([]byte, n)
		rng.Read(raw)
		if n >= 1 && rng.Intn(2) == 0 {
			raw[0] = Version // exercise deeper paths half the time
		}
		if n >= 4 {
			// Keep the declared length plausible so body reads terminate.
			raw[2] = 0
			raw[3] = byte(8 + rng.Intn(56))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %x: %v", raw, r)
				}
			}()
			ReadMessage(bytes.NewReader(raw)) //nolint:errcheck
		}()
	}
}
