package ofwire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/obs"
	"hermes/internal/testutil"
)

// fakePeer runs a scripted agent on the server end of a net.Pipe: it
// performs the hello exchange and hands the connection to fn.
func fakePeer(t *testing.T, fn func(conn net.Conn) error) *Client {
	t.Helper()
	// The client's read loop and the scripted peer goroutine must both be
	// gone once the cleanups below have closed the pipe.
	testutil.VerifyNoLeaks(t)
	cc, sc := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- func() error {
			if err := WriteMessage(sc, &Message{Header: Header{Type: TypeHello}}); err != nil {
				return err
			}
			if _, err := ReadMessage(sc); err != nil {
				return err
			}
			return fn(sc)
		}()
	}()
	t.Cleanup(func() {
		if err := <-errCh; err != nil {
			t.Errorf("fake peer: %v", err)
		}
	})
	c, err := NewClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientPipelinesTwoInFlight proves the client sustains at least two
// concurrent in-flight requests on one connection: the peer refuses to
// reply to the first request until it has *read* the second, which
// deadlocks a client that serializes round trips (net.Pipe has no
// buffering — the second request can only be written if the client does
// not wait for the first reply). Replies are issued in reverse order, so
// completion also proves XID demultiplexing.
func TestClientPipelinesTwoInFlight(t *testing.T) {
	c := fakePeer(t, func(conn net.Conn) error {
		r1, err := ReadMessage(conn)
		if err != nil {
			return err
		}
		r2, err := ReadMessage(conn) // both requests on the wire at once
		if err != nil {
			return err
		}
		for _, req := range []*Message{r2, r1} { // reverse order
			reply := &Message{Header: Header{Type: TypeEchoReply, XID: req.Header.XID}, Raw: req.Raw}
			if err := WriteMessage(conn, reply); err != nil {
				return err
			}
		}
		conn.Close()
		return nil
	})

	results := make(chan error, 2)
	for _, payload := range []string{"first", "second"} {
		payload := payload
		go func() {
			got, err := c.Echo([]byte(payload))
			if err != nil {
				results <- err
				return
			}
			if string(got) != payload {
				results <- fmt.Errorf("echo %q returned %q", payload, got)
				return
			}
			results <- nil
		}()
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("deadlock: client did not pipeline two in-flight requests")
		}
	}
}

// TestReadErrorFailsAllPending checks that a wire failure wakes every
// pending caller with a descriptive error instead of leaving them blocked,
// that the failed round trips leave no RTT sample and the in-flight gauge
// at zero, and that a replacement client given the same instruments keeps
// recording into them.
func TestReadErrorFailsAllPending(t *testing.T) {
	const callers = 4
	c := fakePeer(t, func(conn net.Conn) error {
		for i := 0; i < callers; i++ {
			if _, err := ReadMessage(conn); err != nil {
				return err
			}
		}
		conn.Close() // die with every request pending
		return nil
	})
	var inflight obs.Gauge
	rtt := obs.NewHistogram()
	c.Instrument(&inflight, rtt)

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Echo([]byte("ping"))
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pending callers still blocked after connection failure")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: nil error after connection failure", i)
		}
		if !strings.Contains(err.Error(), "connection failed") {
			t.Errorf("caller %d: undescriptive error %v", i, err)
		}
	}
	// The client is terminally dead: later calls fail immediately.
	if _, err := c.Echo([]byte("again")); err == nil {
		t.Error("echo succeeded on a dead client")
	}
	if c.Err() == nil {
		t.Error("Err() nil on a dead client")
	}
	if rtt.Count() != 0 || inflight.Value() != 0 {
		t.Errorf("after the reset: %d RTT samples, in-flight gauge %d; want 0, 0", rtt.Count(), inflight.Value())
	}

	// The reconnect: a fresh client on the same instruments records into them.
	c2 := fakePeer(t, func(conn net.Conn) error {
		req, err := ReadMessage(conn)
		if err != nil {
			return err
		}
		return WriteMessage(conn, &Message{Header: Header{Type: TypeEchoReply, XID: req.Header.XID}, Raw: req.Raw})
	})
	c2.Instrument(&inflight, rtt)
	if _, err := c2.Echo([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if rtt.Count() != 1 || inflight.Value() != 0 {
		t.Errorf("after the reconnect: %d RTT samples, in-flight gauge %d; want 1, 0", rtt.Count(), inflight.Value())
	}
}

// shortWriteConn cuts its failAt-th Write short: half the bytes reach the
// peer, the call returns an error, and the connection stays open.
type shortWriteConn struct {
	net.Conn
	failAt int

	mu      sync.Mutex
	writes  int
	partial int // bytes the cut write let through
}

func (c *shortWriteConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	cut := c.writes == c.failAt
	c.mu.Unlock()
	if !cut {
		return c.Conn.Write(b)
	}
	n, err := c.Conn.Write(b[:len(b)/2])
	c.mu.Lock()
	c.partial = n
	c.mu.Unlock()
	if err == nil {
		err = io.ErrShortWrite
	}
	return n, err
}

// TestShortWriteFailsClient: a frame write cut short leaves the peer a
// partial frame, so the client must die with it. The caller already
// waiting on an earlier request is woken with the failure, the next
// request errors without touching the wire, and the peer receives nothing
// after the partial frame.
func TestShortWriteFailsClient(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cc, sc := net.Pipe()
	// Writes: [1] the hello reply, [2] the first echo, [3] the second, cut.
	conn := &shortWriteConn{Conn: cc, failAt: 3}
	gotFirst := make(chan struct{})
	tail := make(chan int, 1)
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			if err := WriteMessage(sc, &Message{Header: Header{Type: TypeHello}}); err != nil {
				return err
			}
			if _, err := ReadMessage(sc); err != nil {
				return err
			}
			if _, err := ReadMessage(sc); err != nil { // the first echo, never answered
				return err
			}
			close(gotFirst)
			rest, err := io.ReadAll(sc) // until the client closes its end
			tail <- len(rest)
			return err
		}()
	}()
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Echo([]byte("first"))
		first <- err
	}()
	<-gotFirst
	if _, err := c.Echo([]byte("second")); err == nil {
		t.Fatal("echo succeeded through a short write")
	}
	select {
	case err := <-first:
		if err == nil || !strings.Contains(err.Error(), "connection failed") {
			t.Fatalf("pending caller err = %v, want the connection failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending caller still blocked after the failed write")
	}
	if _, err := c.Echo([]byte("third")); err == nil {
		t.Fatal("echo succeeded on a client whose write failed")
	}
	if c.Err() == nil {
		t.Fatal("Err() nil after a failed write")
	}
	select {
	case n := <-tail:
		conn.mu.Lock()
		partial, writes := conn.partial, conn.writes
		conn.mu.Unlock()
		if n != partial || writes != 3 {
			t.Fatalf("peer got %d bytes after the first echo and the client wrote %d times, want the %d-byte partial frame and 3 writes",
				n, writes, partial)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the failed write left the connection open")
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// TestConcurrentClose checks Close is safe to call concurrently and
// repeatedly while requests are in flight; the cut callers see
// ErrClientClosed.
func TestConcurrentClose(t *testing.T) {
	const callers = 3
	started := make(chan struct{}, callers)
	c := fakePeer(t, func(conn net.Conn) error {
		for i := 0; i < callers; i++ {
			if _, err := ReadMessage(conn); err != nil {
				return err
			}
			started <- struct{}{}
		}
		// Never reply; wait for the client to hang up.
		_, err := ReadMessage(conn)
		if err == nil {
			return errors.New("expected close")
		}
		return nil
	})

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Echo([]byte("stall"))
		}()
	}
	for i := 0; i < callers; i++ {
		<-started // all requests on the wire
	}
	var cwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			c.Close() //nolint:errcheck
		}()
	}
	cwg.Wait()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("caller %d: err = %v, want ErrClientClosed", i, err)
		}
	}
}

// failWriteConn fails every write once failing is set, without writing.
type failWriteConn struct {
	net.Conn
	failing atomic.Bool
}

func (c *failWriteConn) Write(b []byte) (int, error) {
	if c.failing.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

// TestOnDoneHookReentersClient: a group's OnDone hook runs on whichever
// goroutine closes its Done — the read loop on the reply, fail on a reset
// or a Close, the expiry timer, the sender whose write failed — and holds
// no client lock there, so a hook that calls back into the client (Err,
// Wait, sending another group) returns.
func TestOnDoneHookReentersClient(t *testing.T) {
	mods := []FlowMod{*FlowModFromRule(FlowAdd, batchRule(1))}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		// closeDone makes the group's Done close; req is its frame as the
		// peer read it.
		closeDone func(c *Client, conn *failWriteConn, peer net.Conn, req *Message)
	}{
		{"reply", 0, func(_ *Client, _ *failWriteConn, peer net.Conn, req *Message) {
			WriteMessage(peer, &Message{Header: Header{Type: TypeFlowModReply, XID: req.Header.XID}, //nolint:errcheck
				FlowModReply: &FlowModReply{RuleID: req.FlowMod.RuleID}})
		}},
		{"reset", 0, func(_ *Client, _ *failWriteConn, peer net.Conn, _ *Message) { peer.Close() }},
		{"close", 0, func(c *Client, _ *failWriteConn, _ net.Conn, _ *Message) { c.Close() }},
		{"expiry", 20 * time.Millisecond, func(*Client, *failWriteConn, net.Conn, *Message) {}},
		{"write", 0, func(c *Client, conn *failWriteConn, _ net.Conn, _ *Message) {
			conn.failing.Store(true)
			c.SendEach(mods) // its failed write fails the client, and the group in flight
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			cc, sc := net.Pipe()
			conn := &failWriteConn{Conn: cc}
			frames := make(chan *Message, 4) // the group's frame and the hook's
			go func() {
				defer sc.Close()
				if WriteMessage(sc, &Message{Header: Header{Type: TypeHello}}) != nil {
					return
				}
				if _, err := ReadMessage(sc); err != nil { // the client's hello
					return
				}
				for {
					req, err := ReadMessage(sc)
					if err != nil {
						return
					}
					frames <- req
				}
			}()
			c, err := NewClient(conn)
			if err != nil {
				t.Fatal(err)
			}
			c.SetRequestTimeout(tc.timeout)

			b := c.SendEach(mods)
			ran := make(chan error, 1) // the hook may run on this goroutine, in OnDone
			b.OnDone(func() {
				c.Err() //nolint:errcheck
				c.SendEach(mods)
				_, err := b.Wait(context.Background())
				ran <- err
			})
			var req *Message
			select {
			case req = <-frames:
			case <-time.After(5 * time.Second):
				t.Fatal("the group's frame never reached the peer")
			}
			go tc.closeDone(c, conn, sc, req)
			select {
			case err := <-ran:
				if (err == nil) != (tc.name == "reply") {
					t.Fatalf("Wait in the hook: %v", err)
				}
			case <-time.After(5 * time.Second):
				// Not closed: Close would wait on the deadlocked read loop.
				t.Fatal("the hook never returned: it deadlocked on the client")
			}
			c.Close()
		})
	}
}
