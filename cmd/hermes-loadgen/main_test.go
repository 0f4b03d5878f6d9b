package main

import (
	"context"
	"net"
	"testing"
	"time"

	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/loadgen/driver"
	"hermes/internal/ofwire"
	"hermes/internal/testutil"
)

// startWedged serves a switch that completes the hello and answers echo
// probes but swallows every flow-mod, so only a request deadline ends one.
func startWedged(t *testing.T) string {
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
			go func(conn net.Conn) {
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
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestRequestTimeoutBoundsWedgedSwitch: -request-timeout bounds every
// flow-mod of a run, per-op and -batch alike, so a replay against a switch
// that never answers ends with every op in the ledger as lost instead of
// hanging.
func TestRequestTimeoutBoundsWedgedSwitch(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(map[bool]string{false: "perop", true: "batch"}[batch], func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			const timeout = 100 * time.Millisecond
			f, err := fleet.New(fleetConfig(batch, 64, 500*time.Microsecond, timeout),
				[]fleet.SwitchSpec{{ID: "wedged", Addr: startWedged(t)}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := loadgen.Generate(loadgen.Config{
				Flows: 40, Rate: 2000, Arrival: loadgen.ArrivalConstant, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			led := loadgen.NewLedger(1)
			done := make(chan error, 1)
			go func() {
				_, err := driver.Run(context.Background(), s, f, led, driver.Config{Workers: 4})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(s.Duration() + 50*timeout):
				t.Fatal("the run outlived its request timeout on a wedged switch")
			}
			tot := led.Totals()
			if want := uint64(len(s.Events)); tot.Submitted != want || tot.Lost != want {
				t.Fatalf("submitted/lost = %d/%d, want every op (%d) lost", tot.Submitted, tot.Lost, want)
			}
		})
	}
}
