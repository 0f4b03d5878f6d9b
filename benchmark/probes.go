package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hermes/internal/core"
	"hermes/internal/loadgen"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
)

const (
	probeReps  = 5    // every layer probe runs this often; the median is reported
	probeScale = 0.05 // size of the probes' workload inputs relative to a measured rep
)

// probeSet collects each probe's repetitions by metric name.
type probeSet map[string][]float64

func (p probeSet) add(m map[string]float64) {
	for k, v := range m {
		p[k] = append(p[k], v)
	}
}

// layerProbes peels the flow-mod path and times the layers under the other
// workloads directly, each probe fed the inputs of the workload it
// explains, generated from the same seed at probeScale times the run's scale. The flow-mod
// stream is applied to a bare core.Agent, then through a bare
// ofwire.Client over loopback, then (by the fleet workloads' own traced
// reps) through the fleet; the differences are each layer's share.
func layerProbes(seed int64, scale float64) (probeSet, error) {
	out := probeSet{}
	scale *= probeScale
	// Four times the share for the per-op stream: at about 30 µs an op it
	// needs the events to hold a p99.
	perop, err := newFleetWL(false, seed, 4*scale)
	if err != nil {
		return nil, err
	}
	batch, err := newFleetWL(true, seed, scale)
	if err != nil {
		return nil, err
	}
	gate := newGateWL(seed, scale)
	churn, err := newLookupWL(false, seed, scale)
	if err != nil {
		return nil, err
	}
	cache, err := newLookupWL(true, seed, scale)
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeReps; i++ {
		out.add(map[string]float64{"bench.timer_pair_ns": timerPairNS()})
		out.add(codecProbe(perop.events))
		m, err := coreProbe(perop.events)
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		out.add(m)
		if m, err = wireProbe(perop.events, false); err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
		out.add(m)
		if m, err = wireProbe(batch.events, true); err != nil {
			return nil, fmt.Errorf("batch wire probe: %w", err)
		}
		out.add(m)
		out.add(gateProbes(gate.epochs[1]))
		if m, err = churn.lookupProbes(); err != nil {
			return nil, fmt.Errorf("lookup probe: %w", err)
		}
		out.add(m)
		for _, w := range []runner{perop, batch, gate, churn, cache} {
			r, err := w.run(&tracer{})
			if err != nil {
				return nil, fmt.Errorf("traced probe rep: %w", err)
			}
			if r.Failed != 0 {
				return nil, fmt.Errorf("traced probe rep: %d ops failed", r.Failed)
			}
			out.add(r.Layer)
		}
	}
	return out, nil
}

// timerPairNS is the cost of the two clock reads around a timed op.
func timerPairNS() float64 {
	const n = 1 << 18
	var acc int64
	t0 := nowNS()
	for i := 0; i < n; i++ {
		a := nowNS()
		acc += nowNS() - a
	}
	sink += int(acc & 1)
	return float64(nowNS()-t0) / n
}

func flowModOf(e loadgen.Event) *ofwire.FlowMod {
	cmd := ofwire.FlowAdd
	switch e.Op {
	case loadgen.OpModify:
		cmd = ofwire.FlowModify
	case loadgen.OpDelete:
		cmd = ofwire.FlowDelete
	}
	return ofwire.FlowModFromRule(cmd, e.Rule)
}

// codecProbe times ofwire.WriteMessage and ReadMessage on a bytes.Buffer,
// per-op frames and 64-op batch frames, over the stream's own flow-mods.
func codecProbe(events []loadgen.Event) map[string]float64 {
	n := len(events) / 64 * 64
	mods := make([]ofwire.FlowMod, n)
	for i := range mods {
		mods[i] = *flowModOf(events[i])
	}
	var buf bytes.Buffer
	run := func(msgs int, msg func(i int) *ofwire.Message) (encNS, decNS, allocs float64) {
		buf.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := nowNS()
		for i := 0; i < msgs; i++ {
			ofwire.WriteMessage(&buf, msg(i)) //nolint:errcheck // bytes.Buffer writes cannot fail
		}
		t1 := nowNS()
		rd := bytes.NewReader(buf.Bytes())
		for i := 0; i < msgs; i++ {
			m, err := ofwire.ReadMessage(rd)
			if err != nil {
				panic(err) // the frames were just encoded by the same codec
			}
			sink += int(m.Header.XID)
		}
		t2 := nowNS()
		runtime.ReadMemStats(&m1)
		return float64(t1 - t0), float64(t2 - t1), float64(m1.Mallocs - m0.Mallocs)
	}
	one := ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeFlowMod}}
	enc, dec, allocs := run(n, func(i int) *ofwire.Message {
		one.Header.XID, one.FlowMod = uint32(i), &mods[i]
		return &one
	})
	many := ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeFlowModBatch}, FlowModBatch: &ofwire.FlowModBatch{}}
	benc, bdec, _ := run(n/64, func(i int) *ofwire.Message {
		many.Header.XID, many.FlowModBatch.Ops = uint32(i), mods[i*64:(i+1)*64]
		return &many
	})
	ops := float64(n)
	return map[string]float64{
		"ofwire.encode_ns_per_op":       enc / ops,
		"ofwire.decode_ns_per_op":       dec / ops,
		"ofwire.allocs_per_msg":         allocs / (2 * ops),
		"ofwire.encode_batch_ns_per_op": benc / ops,
		"ofwire.decode_batch_ns_per_op": bdec / ops,
	}
}

func batchOpOf(e loadgen.Event) core.BatchOp {
	kind := core.BatchInsert
	switch e.Op {
	case loadgen.OpModify:
		kind = core.BatchModify
	case loadgen.OpDelete:
		kind = core.BatchDelete
	}
	return core.BatchOp{Kind: kind, Rule: e.Rule}
}

// coreProbe applies the stream straight to a core.Agent, op by op and in
// ApplyBatch calls of 64, on the wall-to-virtual clock the agent daemon
// uses.
func coreProbe(events []loadgen.Event) (map[string]float64, error) {
	out := map[string]float64{}
	for _, batched := range []bool{false, true} {
		a, err := core.New(tcam.NewSwitch("probe", tcam.Pica8P3290), agentConfig())
		if err != nil {
			return nil, err
		}
		failed := 0
		start := time.Now()
		if batched {
			ops := make([]core.BatchOp, len(events))
			for i, e := range events {
				ops[i] = batchOpOf(e)
			}
			var res []core.BatchResult
			start = time.Now()
			for i := 0; i+64 <= len(ops); i += 64 {
				res = a.ApplyBatch(time.Since(start), ops[i:i+64], res)
				for _, r := range res {
					if r.Err != nil {
						failed++
					}
				}
			}
		} else {
			for _, e := range events {
				var err error
				switch e.Op {
				case loadgen.OpInsert:
					_, err = a.Insert(time.Since(start), e.Rule)
				case loadgen.OpModify:
					_, err = a.Modify(time.Since(start), e.Rule)
				default:
					_, err = a.Delete(time.Since(start), e.Rule.ID)
				}
				if err != nil {
					failed++
				}
			}
		}
		applied := len(events)
		if batched {
			applied -= applied % 64
		}
		perOp := float64(time.Since(start).Nanoseconds()) / float64(applied) / 1e3
		if failed != 0 {
			return nil, fmt.Errorf("%d direct ops failed (batched %v)", failed, batched)
		}
		if batched {
			out["core.batch_us_per_op"] = perOp
		} else {
			out["core.flowmod_us"] = perOp
		}
	}
	return out, nil
}

// wireProbe replays the stream through one bare ofwire.Client to one agent
// daemon over loopback, serialized: per op, or in ApplyBatch calls of 64.
// Stamping both ends of the connection splits each round trip into the
// server's handling (request read → reply written) and the rest.
func wireProbe(events []loadgen.Event, batched bool) (map[string]float64, error) {
	env := &fleetEnv{logs: newLogs(1, 9*len(events)+1024)}
	defer env.close()
	if err := env.startServers(1); err != nil {
		return nil, err
	}
	conn, err := env.dial(0)
	if err != nil {
		return nil, err
	}
	c, err := ofwire.NewClient(conn)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	log := env.logs[0]
	var rtt []int64
	failed := 0
	if batched {
		mods := make([]ofwire.FlowMod, 64)
		for i := 0; i+64 <= len(events); i += 64 {
			for j := range mods {
				mods[j] = *flowModOf(events[i+j])
			}
			t0 := nowNS()
			res, err := c.ApplyBatch(mods)
			log.add(evDone, nowNS())
			rtt = append(rtt, nowNS()-t0)
			if err != nil {
				return nil, err
			}
			for _, r := range res {
				if r.Err != nil {
					failed++
				}
			}
		}
	} else {
		for _, e := range events {
			var err error
			t0 := nowNS()
			switch e.Op {
			case loadgen.OpInsert:
				_, err = c.Insert(e.Rule)
			case loadgen.OpModify:
				_, err = c.Modify(e.Rule)
			default:
				_, err = c.Delete(e.Rule.ID)
			}
			log.add(evDone, nowNS())
			rtt = append(rtt, nowNS()-t0)
			if err != nil {
				failed++
			}
		}
	}
	if failed != 0 {
		return nil, fmt.Errorf("%d wire ops failed", failed)
	}
	var handle []int64
	for _, ft := range log.replay() {
		handle = append(handle, ft.srvWrite-ft.srvRead)
	}
	sortNS(rtt)
	p50, h50 := float64(quantileNS(rtt, 0.5))/1e3, float64(medianNS(handle))/1e3
	if batched {
		return map[string]float64{
			"ofwire.batch64_rtt_us_per_op":         p50 / 64,
			"ofwire.server_handle_batch_us_per_op": h50 / 64,
		}, nil
	}
	return map[string]float64{
		"ofwire.perop_rtt_p50_us": p50,
		"ofwire.perop_rtt_p99_us": float64(quantileNS(rtt, 0.99)) / 1e3,
		"ofwire.server_handle_us": h50,
		"ofwire.loopback_us":      p50 - h50,
	}, nil
}
