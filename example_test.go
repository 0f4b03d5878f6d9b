package hermes_test

// Godoc-visible examples for the public API: run with `go test -run Example`.

import (
	"fmt"
	"time"

	"hermes"
)

// Example demonstrates the minimal Hermes flow: model a switch, request a
// guarantee, insert a rule, look it up.
func Example() {
	sw := hermes.NewSwitch("tor-1", hermes.Pica8P3290)
	agent, err := hermes.NewAgent(sw, hermes.Config{Guarantee: 5 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	res, err := agent.Insert(0, hermes.Rule{
		ID:       1,
		Match:    hermes.DstMatch(hermes.MustParsePrefix("10.1.0.0/16")),
		Priority: 10,
		Action:   hermes.Action{Type: hermes.ActionForward, Port: 3},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("guaranteed:", res.Guaranteed, "within bound:", res.Completed <= 5*time.Millisecond)

	rule, ok := agent.Lookup(hermes.MustParsePrefix("10.1.2.3/32").Addr, 0)
	fmt.Println("lookup:", ok, rule.Action)
	// Output:
	// guaranteed: true within bound: true
	// lookup: true fwd:3
}

// ExampleQoSOverheads previews the TCAM cost of a guarantee before
// configuring anything — the operator-facing trade-off explorer of §7.
func ExampleQoSOverheads() {
	for _, g := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		fmt.Printf("%v guarantee costs %.1f%% of the Pica8 TCAM\n",
			g, hermes.QoSOverheads(hermes.Pica8P3290, g)*100)
	}
	// Output:
	// 1ms guarantee costs 1.3% of the Pica8 TCAM
	// 5ms guarantee costs 3.1% of the Pica8 TCAM
	// 10ms guarantee costs 5.6% of the Pica8 TCAM
}

// ExampleRegistry_CreateTCAMQoS shows the full §7 operator API.
func ExampleRegistry_CreateTCAMQoS() {
	reg := hermes.NewRegistry()
	sw := hermes.NewSwitch("edge-1", hermes.Dell8132F)
	id, info, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("descriptor %d: shadow=%d entries, rate>0=%v\n",
		id, info.ShadowEntries, info.MaxBurstRate > 0)
	fmt.Println("modify ok:", reg.ModQoSConfig(id, 10*time.Millisecond))
	fmt.Println("delete ok:", reg.DeleteQoS(id))
	// Output:
	// descriptor 1: shadow=284 entries, rate>0=true
	// modify ok: true
	// delete ok: true
}
