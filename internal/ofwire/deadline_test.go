package ofwire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
)

// TestRequestTimeoutAbandonsOnlyThatRequest: the peer swallows the first
// request and serves the second. The deadline must fail the first caller
// without poisoning the connection — the second request still completes.
func TestRequestTimeoutAbandonsOnlyThatRequest(t *testing.T) {
	c := fakePeer(t, func(conn net.Conn) error {
		if _, err := ReadMessage(conn); err != nil {
			return err // first request: swallowed, never answered
		}
		r2, err := ReadMessage(conn)
		if err != nil {
			return err
		}
		return WriteMessage(conn, &Message{
			Header: Header{Type: TypeEchoReply, XID: r2.Header.XID},
			Raw:    r2.Raw,
		})
	})
	c.SetRequestTimeout(50 * time.Millisecond)
	if got := c.RequestTimeout(); got != 50*time.Millisecond {
		t.Fatalf("RequestTimeout = %v", got)
	}
	if _, err := c.Echo([]byte("lost")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("swallowed request: err = %v, want deadline exceeded", err)
	}
	c.SetRequestTimeout(0)
	got, err := c.Echo([]byte("ok"))
	if err != nil || string(got) != "ok" {
		t.Fatalf("follow-up echo = %q, %v; the timeout poisoned the connection", got, err)
	}
}

// TestCtxVariantsHonorCancellation: PendingBatch.Wait is the client's one
// context entry. Handed an already-cancelled context it returns at once
// with the context's error, for flow-mod-batch and per-op frames alike,
// and every slot carries it.
func TestCtxVariantsHonorCancellation(t *testing.T) {
	var mu sync.Mutex
	swallowed := 0
	c := fakePeer(t, func(conn net.Conn) error {
		for {
			if _, err := ReadMessage(conn); err != nil {
				return nil // client hung up
			}
			mu.Lock()
			swallowed++
			mu.Unlock()
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []FlowMod{
		*FlowModFromRule(FlowAdd, classifier.Rule{ID: 1, Priority: 1}),
		*FlowModFromRule(FlowDelete, classifier.Rule{ID: 2}),
	}
	for name, send := range map[string]func([]FlowMod) *PendingBatch{
		"SendBatch": c.SendBatch, "SendEach": c.SendEach,
	} {
		pb := send(ops)
		results, err := pb.Wait(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Wait = %v, want context.Canceled", name, err)
		}
		for i, r := range results {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("%s: slot %d = %v, want context.Canceled", name, i, r.Err)
			}
		}
		if len(results) != len(ops) || pb.Failed() == 0 {
			t.Fatalf("%s: %d results, %d frames failed", name, len(results), pb.Failed())
		}
	}
	mu.Lock()
	n := swallowed
	mu.Unlock()
	if n == 0 {
		t.Fatal("requests never reached the wire")
	}
}

// TestServerShutdownDrains: a graceful shutdown lets in-flight traffic
// finish, returns within the drain bound, and leaves no goroutines behind
// (startServer arms the leak check).
func TestServerShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Insert(classifier.Rule{
		ID:       1,
		Match:    classifier.DstMatch(classifier.MustParsePrefix("10.0.0.0/24")),
		Priority: 5,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: 3},
	}); err != nil {
		t.Fatal(err)
	}

	// Keep traffic flowing while the shutdown lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Echo([]byte("ping")); err != nil {
				return // the drain cut us off, as expected
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if err := srv.Shutdown(200 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v, want bounded by the drain deadline", elapsed)
	}
	close(stop)
	wg.Wait()

	// The listener is gone: new controllers cannot attach.
	if _, err := Dial(addr, 100*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Repeated shutdown must not hang or panic (Close runs later in the
	// test cleanup and must also be safe after Shutdown).
	srv.Shutdown(10 * time.Millisecond) //nolint:errcheck
}
