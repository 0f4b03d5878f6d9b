// Package ofwiretest serves scripted ofwire peers for tests.
package ofwiretest

import (
	"net"
	"testing"

	"hermes/internal/ofwire"
)

// Wedged serves a switch on loopback that completes the hello and answers
// echo probes but swallows every other request, so only a request deadline
// ends a flow-mod sent to it. It returns the listening address; the
// listener closes at the test's cleanup, and each connection when its
// client hangs up.
func Wedged(t testing.TB) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go serveWedged(conn)
		}
	}()
	return lis.Addr().String()
}

func serveWedged(conn net.Conn) {
	defer conn.Close()
	ofwire.WriteMessage(conn, &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeHello}}) //nolint:errcheck
	for {
		req, err := ofwire.ReadMessage(conn)
		if err != nil {
			return
		}
		if req.Header.Type == ofwire.TypeEchoRequest {
			resp := &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeEchoReply,
				XID: req.Header.XID}, Raw: req.Raw}
			if err := ofwire.WriteMessage(conn, resp); err != nil {
				return
			}
		}
	}
}
