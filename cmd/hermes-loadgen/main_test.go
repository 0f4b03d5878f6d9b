package main

import (
	"context"
	"testing"
	"time"

	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/loadgen/driver"
	"hermes/internal/ofwire/ofwiretest"
	"hermes/internal/testutil"
)

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
				[]fleet.SwitchSpec{{ID: "wedged", Addr: ofwiretest.Wedged(t)}})
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
				_, err := driver.Run(context.Background(), s, f, led, driver.Config{})
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
