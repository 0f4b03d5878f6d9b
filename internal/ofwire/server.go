package ofwire

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/tcam"
)

// AgentServer is the switch-resident daemon: it terminates control
// channels, maps wall-clock time onto the agent's virtual clock, applies
// flow-mods, runs the Rule Manager tick loop, and answers the Hermes QoS
// extension. It corresponds to the "Hermes Agent" box of Fig. 2.
//
// The embedded core.Agent is single-threaded by design; the server
// serializes all access behind one mutex, which also matches the single
// switch-CPU deployment the paper targets.
type AgentServer struct {
	cfg core.Config

	mu    sync.Mutex
	agent *core.Agent
	start time.Time

	lis    net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	// drainAt, when non-zero, is the Shutdown deadline; connections
	// registered after it starts inherit the deadline immediately.
	drainAt time.Time

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...interface{})
}

// NewAgentServer builds the daemon for one modeled switch.
func NewAgentServer(name string, profile *tcam.Profile, cfg core.Config) (*AgentServer, error) {
	agent, err := core.New(tcam.NewSwitch(name, profile), cfg)
	if err != nil {
		return nil, err
	}
	return &AgentServer{
		cfg:    cfg,
		agent:  agent,
		start:  time.Now(),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		Logf:   log.Printf,
	}, nil
}

// Agent exposes the wrapped agent (tests and stats).
func (s *AgentServer) Agent() *core.Agent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agent
}

// RegisterObs exposes the daemon on an obs registry: the agent's always-on
// counters, table occupancy, and the server's open-connection count, all as
// scrape-time closures. Closures read through s.agent under the server lock,
// so they stay correct when a QoS re-carve replaces the agent. The per-op
// latency histograms and the flight recorder are the Observer's job — pass
// core.NewObserver(reg, ...) in the core.Config instead; this method covers
// the state that exists even with a nil Observer.
func (s *AgentServer) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	counters := func(pick func(core.Metrics) int) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			m := s.agent.Metrics() // cheap counter copy; histograms untouched
			s.mu.Unlock()
			return uint64(pick(m))
		}
	}
	reg.CounterFunc("hermes_agent_inserts_total", "",
		"controller-issued insertions", counters(func(m core.Metrics) int { return m.Inserts }))
	reg.CounterFunc("hermes_agent_shadow_inserts_total", "",
		"insertions on the guaranteed shadow path", counters(func(m core.Metrics) int { return m.ShadowInserts }))
	reg.CounterFunc("hermes_agent_main_inserts_total", "",
		"insertions on the unguaranteed main path", counters(func(m core.Metrics) int { return m.MainInserts }))
	reg.CounterFunc("hermes_agent_bypasses_total", "",
		"lowest-priority bypass appends", counters(func(m core.Metrics) int { return m.Bypasses }))
	reg.CounterFunc("hermes_agent_rate_limited_total", "",
		"insertions diverted by the token bucket", counters(func(m core.Metrics) int { return m.RateLimited }))
	reg.CounterFunc("hermes_agent_violations_total", "",
		"guaranteed insertions past the bound", counters(func(m core.Metrics) int { return m.Violations }))
	reg.CounterFunc("hermes_agent_migrations_total", "",
		"Rule Manager migrations completed", counters(func(m core.Metrics) int { return m.Migrations }))
	reg.CounterFunc("hermes_agent_reconciles_total", "",
		"reconcile passes after crash recovery", counters(func(m core.Metrics) int { return m.Reconciles }))

	occ := func(pick func(*core.Agent) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(pick(s.agent))
		}
	}
	reg.GaugeFunc("hermes_tcam_occupancy", obs.Labels("table", "shadow"),
		"physical entries installed", occ((*core.Agent).ShadowOccupancy))
	reg.GaugeFunc("hermes_tcam_occupancy", obs.Labels("table", "main"),
		"physical entries installed", occ((*core.Agent).MainOccupancy))
	reg.GaugeFunc("hermes_tcam_capacity", obs.Labels("table", "shadow"),
		"entries the carved slice can hold", occ((*core.Agent).ShadowSize))
	reg.GaugeFunc("hermes_ofwire_open_conns", "",
		"live control channels", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return float64(len(s.conns))
		})
}

// now maps wall time to the agent's virtual clock.
func (s *AgentServer) now() time.Duration { return time.Since(s.start) }

// Serve accepts control connections on lis until Close. It also drives the
// Rule Manager tick loop at the configured interval.
func (s *AgentServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()

	// Rule Manager tick loop.
	tick := s.cfg.TickInterval
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-t.C:
				s.mu.Lock()
				s.agent.Tick(s.now())
				s.mu.Unlock()
			}
		}
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		if !s.drainAt.IsZero() {
			conn.SetDeadline(s.drainAt)
		}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := s.handle(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, os.ErrDeadlineExceeded) {
				s.Logf("ofwire: connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops the server and waits for connection handlers to finish.
func (s *AgentServer) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	// Force-close live control channels so handlers (blocked in
	// ReadMessage) terminate; a killed agent must drop its connections,
	// not leave peers hanging.
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown stops the server gracefully: it stops accepting, lets every
// in-flight request finish and its reply flush, and gives idle connections
// until the drain deadline to wind down. Handlers parked in a blocked read
// wake at the deadline via the connection deadline; whatever still runs
// after a grace period beyond it is force-closed, so Shutdown returns in
// bounded time regardless of peer behavior. Safe to call repeatedly and
// concurrently with Close.
func (s *AgentServer) Shutdown(drain time.Duration) error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}

	deadline := time.Now().Add(drain)
	s.connMu.Lock()
	s.drainAt = deadline
	for conn := range s.conns {
		// Both directions: a blocked read wakes at the deadline, and a
		// write to a stalled peer cannot pin the drain open.
		conn.SetDeadline(deadline)
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain + 100*time.Millisecond):
		// Deadlines should have unblocked everything; if a handler is
		// still alive the connection gets cut, exactly like Close.
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		<-done
	}
	return err
}

// handle runs one control connection: hello exchange, then a
// request/response loop. Requests are read through one buffered reader and
// every reply is laid out in one per-connection buffer and written with a
// single Write.
func (s *AgentServer) handle(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	// Hello exchange: server speaks first, client must answer.
	wbuf, err := writeFrame(conn, nil, &Message{Header: Header{Type: TypeHello}})
	if err != nil {
		return err
	}
	first, err := ReadMessage(br)
	if err != nil {
		return err
	}
	if first.Header.Type != TypeHello {
		return errors.New("ofwire: peer did not hello")
	}
	for {
		req, err := ReadMessage(br)
		if err != nil {
			return err
		}
		resp := s.dispatch(req)
		if resp == nil {
			continue
		}
		resp.Header.XID = req.Header.XID
		if wbuf, err = writeFrame(conn, wbuf, resp); err != nil {
			return err
		}
	}
}

// dispatch executes one request against the agent and builds the reply.
func (s *AgentServer) dispatch(req *Message) *Message {
	switch req.Header.Type {
	case TypeEchoRequest:
		return &Message{Header: Header{Type: TypeEchoReply}, Raw: req.Raw}
	case TypeBarrierRequest:
		// All processing is synchronous under the lock; reaching here
		// means every prior flow-mod on this channel is complete.
		return &Message{Header: Header{Type: TypeBarrierReply}}
	case TypeFlowMod:
		return s.doFlowMod(req)
	case TypeFlowModBatch:
		return s.doFlowModBatch(req)
	case TypeStatsRequest:
		return s.doStats()
	case TypeQoSRequest:
		return s.doQoS(req)
	case TypeRulesRequest:
		return s.doRules(req)
	case TypeHello:
		return nil // tolerated mid-stream
	default:
		return errorMsg(ErrCodeBadRequest, "unexpected "+req.Header.Type.String())
	}
}

func (s *AgentServer) doFlowMod(req *Message) *Message {
	if req.FlowMod == nil {
		return errorMsg(ErrCodeBadRequest, "empty flow-mod")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	rule := req.FlowMod.Rule()
	var res core.Result
	var err error
	switch req.FlowMod.Command {
	case FlowAdd:
		res, err = s.agent.Insert(now, rule)
	case FlowDelete:
		res, err = s.agent.Delete(now, rule.ID)
	case FlowModify:
		res, err = s.agent.Modify(now, rule)
	default:
		return errorMsg(ErrCodeBadRequest, "unknown flow-mod command")
	}
	if err != nil {
		return errorMsg(errCodeFor(err), err.Error())
	}
	return &Message{
		Header: Header{Type: TypeFlowModReply},
		FlowModReply: &FlowModReply{
			RuleID:     req.FlowMod.RuleID,
			LatencyNS:  uint64(res.Latency),
			Path:       clampU8(int(res.Path)),
			Guaranteed: res.Guaranteed,
			Violation:  res.Violation,
			Partitions: clampU8(res.Partitions),
		},
	}
}

func (s *AgentServer) doStats() *Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.agent.Metrics()
	return &Message{
		Header: Header{Type: TypeStatsReply},
		Stats: &Stats{
			Inserts:       uint64(m.Inserts),
			ShadowInserts: uint64(m.ShadowInserts),
			MainInserts:   uint64(m.MainInserts),
			Bypasses:      uint64(m.Bypasses),
			Violations:    uint64(m.Violations),
			Migrations:    uint64(m.Migrations),
			ShadowOcc:     uint32(s.agent.ShadowOccupancy()),
			MainOcc:       uint32(s.agent.MainOccupancy()),
			ShadowSize:    uint32(s.agent.ShadowSize()),
			OverheadPPM:   uint32(s.agent.OverheadFraction() * 1e6),
			MaxRateMilli:  uint64(s.agent.MaxRate() * 1e3),
		},
	}
}

// doRules serves one page of the multipart rules dump: the agent's
// controller-visible rules with IDs above the request's cursor, in ID
// order. The page size is the smaller of the request's Max and the frame
// bound; More tells the client to come back with the last ID as the new
// cursor.
func (s *AgentServer) doRules(req *Message) *Message {
	if req.RulesRequest == nil {
		return errorMsg(ErrCodeBadRequest, "empty rules-request")
	}
	max := int(req.RulesRequest.Max)
	if max <= 0 || max > MaxRuleEntries {
		max = MaxRuleEntries
	}
	after := classifier.RuleID(req.RulesRequest.After)
	s.mu.Lock()
	rules := s.agent.Rules() // sorted by ID
	s.mu.Unlock()
	// Skip to the first ID past the cursor (rules is ID-sorted).
	lo := sort.Search(len(rules), func(i int) bool { return rules[i].ID > after })
	rules = rules[lo:]
	reply := &RulesReply{}
	if len(rules) > max {
		reply.More = true
		rules = rules[:max]
	}
	reply.Rules = make([]RuleEntry, len(rules))
	for i, r := range rules {
		reply.Rules[i] = EntryFromRule(r)
	}
	return &Message{Header: Header{Type: TypeRulesReply}, RulesReply: reply}
}

// doQoS re-carves the switch for a new guarantee — ModQoSConfig over the
// wire, through the same Agent.Recarve. Installed rules are discarded, as
// on hardware.
func (s *AgentServer) doQoS(req *Message) *Message {
	if req.QoSRequest == nil {
		return errorMsg(ErrCodeBadRequest, "empty qos-request")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	guarantee := req.QoSRequest.Guarantee()
	agent, err := s.agent.Recarve(guarantee)
	if agent != nil {
		s.agent = agent
	}
	if err != nil {
		return errorMsg(ErrCodeQoSInfeasible, err.Error())
	}
	return &Message{
		Header: Header{Type: TypeQoSReply},
		QoSReply: &QoSReply{
			ShadowEntries: uint32(agent.ShadowSize()),
			OverheadPPM:   uint32(agent.OverheadFraction() * 1e6),
			MaxRateMilli:  uint64(agent.MaxRate() * 1e3),
			GuaranteeNS:   uint64(guarantee),
		},
	}
}

func errorMsg(code ErrorCode, reason string) *Message {
	if len(reason) > 512 {
		reason = reason[:512]
	}
	return &Message{Header: Header{Type: TypeError}, Error: &ErrorBody{Code: code, Reason: reason}}
}

func errCodeFor(err error) ErrorCode {
	switch {
	case errors.Is(err, core.ErrUnknownRule):
		return ErrCodeUnknownRule
	case errors.Is(err, core.ErrDuplicateRule):
		return ErrCodeDuplicateRule
	case errors.Is(err, tcam.ErrTableFull):
		return ErrCodeTableFull
	default:
		return ErrCodeInternal
	}
}
