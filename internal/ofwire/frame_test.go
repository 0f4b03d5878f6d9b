package ofwire

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/tcam"
	"hermes/internal/testutil"
)

// writeLog records every Write made on one end of a connection.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLog) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// frameTypes decodes every recorded Write as exactly one whole frame and
// returns the frame types in write order.
func (c *writeLog) frameTypes(t *testing.T, side string) []MsgType {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var types []MsgType
	for i, w := range c.writes {
		r := bytes.NewReader(w)
		m, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("%s write %d (%d bytes) is not a frame: %v", side, i, len(w), err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s write %d (%s) carries %d bytes past its frame", side, i, m.Header.Type, r.Len())
		}
		types = append(types, m.Header.Type)
	}
	return types
}

// TestEveryFrameIsOneWrite: each frame either end sends leaves in exactly
// one Write, and each Write holds exactly one whole frame, for every frame
// type the protocol has.
func TestEveryFrameIsOneWrite(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewAgentServer("one-write", tcam.Pica8P3290,
		core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	cc, sc := net.Pipe()
	clientEnd, serverEnd := &writeLog{Conn: cc}, &writeLog{Conn: sc}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(serverEnd) //nolint:errcheck // ends with the client's hang-up
	}()
	c, err := NewClient(clientEnd)
	if err != nil {
		t.Fatal(err)
	}

	rule := func(id int) classifier.Rule {
		return classifier.Rule{ID: classifier.RuleID(id), Priority: int32(id),
			Match:  classifier.DstMatch(classifier.NewPrefix(uint32(id)<<8|0x0A000000, 24)),
			Action: classifier.Action{Type: classifier.ActionForward, Port: id}}
	}
	if _, err := c.Insert(rule(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch(flowMods(FlowAdd, []classifier.Rule{rule(2), rule(3), rule(4)})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Echo([]byte("one write")); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if rules, err := c.DumpRules(); err != nil || len(rules) != 4 {
		t.Fatalf("dump = %d rules, %v; want 4", len(rules), err)
	}
	if _, err := c.Delete(9999); err == nil {
		t.Fatal("unknown delete succeeded")
	}
	if _, err := c.RequestQoS(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-served

	want := map[string][]MsgType{
		"client": {TypeHello, TypeFlowMod, TypeFlowModBatch, TypeEchoRequest, TypeBarrierRequest,
			TypeStatsRequest, TypeRulesRequest, TypeFlowMod, TypeQoSRequest},
		"server": {TypeHello, TypeFlowModReply, TypeFlowModBatchReply, TypeEchoReply, TypeBarrierReply,
			TypeStatsReply, TypeRulesReply, TypeError, TypeQoSReply},
	}
	for side, end := range map[string]*writeLog{"client": clientEnd, "server": serverEnd} {
		got := end.frameTypes(t, side)
		if len(got) != len(want[side]) {
			t.Fatalf("%s wrote %d frames %v, want %v", side, len(got), got, want[side])
		}
		for i := range got {
			if got[i] != want[side][i] {
				t.Fatalf("%s frame %d is %s, want %s (all: %v)", side, i, got[i], want[side][i], got)
			}
		}
	}
}

// readConn caps how many bytes one Read may return (0 = no cap) and
// records what each Read returned.
type readConn struct {
	net.Conn
	max   int
	mu    sync.Mutex
	sizes []int
}

func (c *readConn) Read(b []byte) (int, error) {
	if c.max > 0 && len(b) > c.max {
		b = b[:c.max]
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.sizes = append(c.sizes, n)
	c.mu.Unlock()
	return n, err
}

// TestReadLoopDemuxesCoalescedAndDribbledFrames: the client's buffered
// read loop must split frames on their own boundaries, not on Read
// boundaries. Two replies written back to back in one Write reach the
// client in one Read; over a conn that returns a single byte per Read every
// frame arrives in pieces. Either way each reply reaches its own XID.
func TestReadLoopDemuxesCoalescedAndDribbledFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxRead int
	}{{"coalesced", 0}, {"dribbled", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			cc, sc := net.Pipe()
			both := make(chan int, 1) // length of the two-reply Write
			peer := make(chan error, 1)
			go func() {
				peer <- func() error {
					if err := WriteMessage(sc, &Message{Header: Header{Type: TypeHello}}); err != nil {
						return err
					}
					if _, err := ReadMessage(sc); err != nil {
						return err
					}
					r1, err := ReadMessage(sc)
					if err != nil {
						return err
					}
					r2, err := ReadMessage(sc)
					if err != nil {
						return err
					}
					// Reverse order, one Write for both frames.
					var out []byte
					for _, req := range []*Message{r2, r1} {
						if out, err = appendFrame(out, &Message{
							Header: Header{Type: TypeEchoReply, XID: req.Header.XID}, Raw: req.Raw,
						}); err != nil {
							return err
						}
					}
					both <- len(out)
					if _, err := sc.Write(out); err != nil {
						return err
					}
					_, err = io.Copy(io.Discard, sc) // until the client hangs up
					return err
				}()
			}()
			rc := &readConn{Conn: cc, max: tc.maxRead}
			c, err := NewClient(rc)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			got := make([]string, 2)
			errs := make([]error, 2)
			for i, payload := range []string{"first reply", "second"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var b []byte
					b, errs[i] = c.Echo([]byte(payload))
					got[i] = string(b)
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("replies never reached their callers")
			}
			c.Close()
			if err := <-peer; err != nil {
				t.Fatalf("peer: %v", err)
			}
			for i, want := range []string{"first reply", "second"} {
				if errs[i] != nil || got[i] != want {
					t.Fatalf("caller %d got %q, %v; want %q", i, got[i], errs[i], want)
				}
			}

			n := <-both
			rc.mu.Lock()
			defer rc.mu.Unlock()
			switch tc.maxRead {
			case 0:
				whole := false
				for _, s := range rc.sizes {
					whole = whole || s == n
				}
				if !whole {
					t.Fatalf("no Read returned both replies (%d bytes) at once: reads %v", n, rc.sizes)
				}
			case 1:
				for _, s := range rc.sizes {
					if s > 1 {
						t.Fatalf("a Read returned %d bytes through a 1-byte conn", s)
					}
				}
			}
		})
	}
}

// TestInsertRoundTripAllocs pins what one per-op Client.Insert costs in
// allocations: the request Message and FlowMod, the reply channel, and the
// decoded reply. The peer is a fixed-buffer loop, so it adds none. The
// frame is laid out in the client's reused buffer; a write path that
// allocates per frame (or per header and body) shows up here.
func TestInsertRoundTripAllocs(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cc, sc := net.Pipe()
	var reply bytes.Buffer
	if err := WriteMessage(&reply, &Message{Header: Header{Type: TypeFlowModReply},
		FlowModReply: &FlowModReply{RuleID: 1, Guaranteed: true}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		rb := reply.Bytes()
		if err := WriteMessage(sc, &Message{Header: Header{Type: TypeHello}}); err != nil {
			return
		}
		var req [headerLen + flowModLen]byte
		if _, err := io.ReadFull(sc, req[:headerLen]); err != nil { // the client's hello
			return
		}
		for {
			if _, err := io.ReadFull(sc, req[:]); err != nil {
				return
			}
			copy(rb[4:8], req[4:8]) // echo the XID
			if _, err := sc.Write(rb); err != nil {
				return
			}
		}
	}()
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := classifier.Rule{ID: 1, Priority: 3}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Insert(r); err != nil {
			t.Fatal(err)
		}
	})
	// Header and body written separately, each allocated, cost 9.
	const pinned = 6
	if allocs > pinned {
		t.Fatalf("per-op Insert round trip allocates %v times, pinned at %d", allocs, pinned)
	}
}
