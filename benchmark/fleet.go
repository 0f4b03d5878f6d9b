package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

const (
	fleetSwitches = 2 // in-process agent daemons, one TCP connection each
	// fleetInflight is how many ops the fleet_batch submitter keeps
	// outstanding: with 64 the fleet is linger-bound (36 kops on the
	// sizing runs), with 256 batches fill and it is codec/agent-bound.
	fleetInflight = 256
)

// agentConfig is the agent every fleet and wire measurement drives: Pica8
// P-3290, 5 ms guarantee, rate limit off (the stream is closed-loop).
func agentConfig() core.Config {
	return core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true}
}

// fleetStream generates the flow-mod stream both fleet workloads and the
// wire/core peeling probes replay: Poisson order, Zipf s=1.1 re-arrivals
// (which surface as modifies), hold sized for about 2000 live rules. Only
// the order is used; timestamps are ignored because the callers are closed
// loop. It returns the first n events.
func fleetStream(seed int64, n int) ([]loadgen.Event, error) {
	s, err := loadgen.Generate(loadgen.Config{
		Flows: n, Rate: 10000, Arrival: loadgen.ArrivalPoisson,
		Distinct: 1_000_000, ZipfS: 1.1, Hold: 500 * time.Millisecond, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return s.Events[:n], nil
}

// switchOf routes a rule to a switch by ID hash, so a rule's ops always
// share a caller and a queue and per-rule order holds.
func switchOf(id classifier.RuleID) int {
	return int(uint64(workload.SubSeed(int64(id), 0)) % fleetSwitches)
}

var switchNames = [fleetSwitches]string{"sw0", "sw1"}

func switchIndex(name string) int { return int(name[len(name)-1] - '0') }

// fleetWL is fleet_perop (batch false) or fleet_batch (batch true).
type fleetWL struct {
	batch  bool
	events []loadgen.Event // warm-up prefix, then the measured events
	warm   int
	sw     []uint8                                  // switch of each event
	order  [fleetSwitches][]int32                   // event indexes per switch, in stream order
	want   [fleetSwitches]map[classifier.RuleID]int // live rule → action port after the last event
	dig    uint64
	start  []int64 // submit stamp per event
	lat    []int64 // submit → confirmed result per event

	// fleet_batch stamps a result when the fleet confirms it (OnResult),
	// not when the submitter gets round to retiring it: confirmed counts
	// each switch's results, which arrive in that switch's submit order.
	confirmed  [fleetSwitches]int
	misordered [fleetSwitches]int
}

// confirm is fleet_batch's OnResult hook. Each switch's worker calls it
// from its own goroutine, one result at a time, in queue order.
func (w *fleetWL) confirm(res fleet.OpResult) {
	k := switchIndex(res.Switch)
	i := w.order[k][w.confirmed[k]]
	w.confirmed[k]++
	w.lat[i] = nowNS() - w.start[i]
	if w.events[i].Rule.ID != res.RuleID {
		w.misordered[k]++
	}
}

func newFleetWL(batch bool, seed int64, scale float64) (*fleetWL, error) {
	// At least 256 events, so that the smallest smoke run still fills a
	// few 64-op batches.
	w := &fleetWL{batch: batch, warm: scaled(2000, scale)}
	n := max(256, scaled(60_000, scale))
	if batch {
		w.warm, n = scaled(8000, scale), max(256, scaled(300_000, scale))
	}
	ev, err := fleetStream(workload.SubSeed(seed, 1), w.warm+n)
	if err != nil {
		return nil, err
	}
	w.events = ev
	w.dig = (&loadgen.Schedule{Events: ev}).Digest()
	w.sw = make([]uint8, len(ev))
	for k := range w.want {
		w.want[k] = make(map[classifier.RuleID]int)
	}
	for i, e := range ev {
		k := switchOf(e.Rule.ID)
		w.sw[i] = uint8(k)
		w.order[k] = append(w.order[k], int32(i))
		if e.Op == loadgen.OpDelete {
			delete(w.want[k], e.Rule.ID)
		} else {
			w.want[k][e.Rule.ID] = e.Rule.Action.Port
		}
	}
	w.start = make([]int64, len(ev))
	w.lat = make([]int64, len(ev))
	return w, nil
}

func (w *fleetWL) digest() uint64 { return w.dig }

// fleetEnv is the system under test: agent daemons on TCP loopback and a
// fleet dialled to them. logs is non-nil on traced reps.
type fleetEnv struct {
	servers []*ofwire.AgentServer
	served  sync.WaitGroup
	specs   []fleet.SwitchSpec
	f       *fleet.Fleet
	logs    []*wireLog
}

// startServers starts n agent daemons; with logs, each serves through a
// stamping listener.
func (env *fleetEnv) startServers(n int) error {
	for k := 0; k < n; k++ {
		srv, err := ofwire.NewAgentServer(switchNames[k], tcam.Pica8P3290, agentConfig())
		if err != nil {
			return err
		}
		srv.Logf = func(string, ...interface{}) {}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := lis.Addr().String()
		if env.logs != nil {
			lis = &stampedListener{Listener: lis, log: env.logs[k]}
		}
		env.servers = append(env.servers, srv)
		env.specs = append(env.specs, fleet.SwitchSpec{ID: switchNames[k], Addr: addr})
		env.served.Add(1)
		go func() {
			defer env.served.Done()
			srv.Serve(lis) //nolint:errcheck // returns nil after Close
		}()
	}
	return nil
}

// dial opens a stamped client-side connection to switch k.
func (env *fleetEnv) dial(k int) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", env.specs[k].Addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &stampedConn{Conn: c, log: env.logs[k]}, nil
}

func (env *fleetEnv) close() {
	if env.f != nil {
		env.f.Close() //nolint:errcheck // teardown of a checked run
	}
	for _, s := range env.servers {
		s.Close() //nolint:errcheck
	}
	env.served.Wait()
}

func newLogs(n, capacity int) []*wireLog {
	logs := make([]*wireLog, n)
	for k := range logs {
		logs[k] = &wireLog{ev: make([]wireEvent, 0, capacity)}
	}
	return logs
}

func (w *fleetWL) run(tr *tracer) (rep, error) {
	var r rep
	t0 := nowNS()
	env := &fleetEnv{}
	defer env.close()
	if tr != nil {
		// Per event at most two client writes, two server reads, two
		// server writes, two client reads and one completion.
		env.logs = newLogs(fleetSwitches, 9*len(w.events)/fleetSwitches+1024)
	}
	if err := env.startServers(fleetSwitches); err != nil {
		return r, err
	}
	cfg := fleet.Config{}
	if w.batch {
		cfg = fleet.Config{WireBatch: true, BatchSize: 64, BatchLinger: 500 * time.Microsecond, QueueDepth: 4096}
		cfg.OnResult = w.confirm
		w.confirmed, w.misordered = [fleetSwitches]int{}, [fleetSwitches]int{}
	}
	if tr != nil {
		byAddr := make(map[string]int)
		for k, s := range env.specs {
			byAddr[s.Addr] = k
		}
		cfg.Dial = func(_, addr string) (net.Conn, error) { return env.dial(byAddr[addr]) }
		confirm := cfg.OnResult
		cfg.OnResult = func(res fleet.OpResult) {
			env.logs[switchIndex(res.Switch)].add(evDone, nowNS())
			if confirm != nil {
				confirm(res)
			}
		}
	}
	f, err := fleet.New(cfg, env.specs)
	if err != nil {
		return r, err
	}
	env.f = f

	replay := w.replayPerOp
	if w.batch {
		replay = w.replayBatch
	}
	r.Failed = replay(f, 0, w.warm)
	r.SetupS = float64(nowNS()-t0) / 1e9

	win := beginWindow()
	r.Failed += replay(f, w.warm, len(w.events))
	win.end(&r, len(w.events)-w.warm)
	r.Attempted = len(w.events)
	if w.misordered != [fleetSwitches]int{} {
		return r, fmt.Errorf("%v results per switch arrived out of submit order: the harness attributes fleet_batch latencies by that order", w.misordered)
	}
	r.setLatency(append([]int64(nil), w.lat[w.warm:]...))

	for k := range env.specs {
		got, err := f.ObservedRules(switchNames[k])
		if err != nil {
			return r, fmt.Errorf("observed rules of %s: %w", switchNames[k], err)
		}
		if err := sameRules(got, w.want[k]); err != nil {
			return r, fmt.Errorf("%s: %w", switchNames[k], err)
		}
	}
	if tr != nil {
		r.Layer = w.layers(tr, env, f.Snapshot(), r.P50us)
	}
	return r, nil
}

// sameRules checks a switch's dumped rules against the live set the event
// prefix implies: same IDs, same action ports.
func sameRules(got []classifier.Rule, want map[classifier.RuleID]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("observed %d rules, the events imply %d", len(got), len(want))
	}
	for _, g := range got {
		if port, ok := want[g.ID]; !ok || port != g.Action.Port {
			return fmt.Errorf("rule %d: observed port %d, the events imply %d (live %v)", g.ID, g.Action.Port, port, ok)
		}
	}
	return nil
}

// submit stamps and queues event i on its switch.
func (w *fleetWL) submit(f *fleet.Fleet, i int) (<-chan fleet.OpResult, error) {
	e, sw := w.events[i], switchNames[w.sw[i]]
	w.start[i] = nowNS()
	switch e.Op {
	case loadgen.OpInsert:
		return f.InsertAsync(sw, e.Rule)
	case loadgen.OpModify:
		return f.ModifyAsync(sw, e.Rule)
	default:
		return f.DeleteAsync(sw, e.Rule.ID)
	}
}

// replayPerOp replays events [from, to) with one synchronous caller per
// switch, each waiting for and timing every op, and returns how many
// failed.
func (w *fleetWL) replayPerOp(f *fleet.Fleet, from, to int) int {
	var wg sync.WaitGroup
	failed := make([]int, fleetSwitches)
	for k := 0; k < fleetSwitches; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for _, i := range w.order[k] {
				if int(i) < from || int(i) >= to {
					continue
				}
				ch, err := w.submit(f, int(i))
				if err == nil {
					err = (<-ch).Err
				}
				w.lat[i] = nowNS() - w.start[i]
				if err != nil {
					failed[k]++
				}
			}
		}(k)
	}
	wg.Wait()
	total := 0
	for _, n := range failed {
		total += n
	}
	return total
}

// replayBatch replays events [from, to) from one submitter that keeps
// fleetInflight ops outstanding and retires them in submit order.
func (w *fleetWL) replayBatch(f *fleet.Fleet, from, to int) int {
	var (
		ring         [fleetInflight]<-chan fleet.OpResult
		head, active int
		failed       int
	)
	retire := func() {
		ch := ring[head%fleetInflight]
		head++
		active--
		if res := <-ch; res.Err != nil {
			failed++
		}
	}
	for i := from; i < to; i++ {
		if active == fleetInflight {
			retire()
		}
		ch, err := w.submit(f, i)
		if err != nil {
			failed++
			continue
		}
		ring[(head+active)%fleetInflight] = ch
		active++
	}
	for active > 0 {
		retire()
	}
	return failed
}

// layers turns a traced rep's wire logs into the fleet layer numbers and
// the sampled spans.
func (w *fleetWL) layers(tr *tracer, env *fleetEnv, snap *fleet.Snapshot, p50us float64) map[string]float64 {
	var prewire, rtt, postwire []int64
	var frames, ops int
	for k, log := range env.logs {
		recs := log.replay()
		first, last := -1, 0
		for j, i := range w.order[k] {
			if int(i) < w.warm || j >= len(recs) {
				continue
			}
			ft := recs[j]
			if first < 0 {
				first = ft.frame
			}
			last = ft.frame
			ops++
			prewire = append(prewire, ft.write-w.start[i])
			rtt = append(rtt, ft.read-ft.write)
			postwire = append(postwire, ft.done-ft.read)
			if ops%sampleEvery == 0 {
				id := uint64(i)
				root := tr.add("flowmod", id, 0, w.start[i], w.start[i]+w.lat[i])
				tr.add("fleet.prewire", id, root, w.start[i], ft.write)
				wire := tr.add("ofwire.rtt", id, root, ft.write, ft.read)
				tr.add("ofwire.server_handle", id, wire, ft.srvRead, ft.srvWrite)
				tr.add("fleet.postwire", id, root, ft.read, ft.done)
			}
		}
		if first >= 0 {
			frames += last - first + 1
		}
	}
	var failedOps, retries, trips float64
	for _, s := range snap.Switches {
		failedOps += float64(s.OpsFailed)
		retries += float64(s.Retries)
		trips += float64(s.Trips)
	}
	perFrame := per(float64(ops), float64(frames))
	out := map[string]float64{
		"fleet.ops_failed":    failedOps,
		"fleet.retries":       retries,
		"fleet.breaker_trips": trips,
	}
	p50 := func(ns []int64) float64 { return float64(medianNS(ns)) / 1e3 }
	if w.batch {
		out["fleet.prewire_wait_us"] = p50(prewire)
		out["fleet.postwire_us"] = p50(postwire)
		out["fleet.batch_fill_frac"] = perFrame / 64
		out["ofwire.batch_rtt_us"] = p50(rtt)
	} else {
		out["fleet.frames_per_kop"] = per(1e3, perFrame)
		out["fleet.perop_p50_us"] = p50us
	}
	return out
}
