package core

import (
	"fmt"
	"time"

	"hermes/internal/tcam"
)

// This file implements the operator-facing abstractions of §7:
//
//	int    CreateTCAMQoS(SwitchID, perf-guarantee, match-predicate)
//	bool   DeleteQoS(ShadowID)
//	bool   ModQoSConfig(ShadowID, perf-guarantee)
//	bool   ModQoSMatch(ShadowID, match-predicate)
//	double QoSOverheads(SwitchID, perf-guarantee, match-predicate)
//
// A Registry plays the role of the Hermes control daemon: it owns the
// per-switch agents, hands out ShadowIDs (the paper's file descriptors),
// and lets operators interrogate the performance/overhead trade-off before
// committing TCAM space.

// ShadowID is the descriptor CreateTCAMQoS returns; it names one shadow
// configuration for later modification or deletion.
type ShadowID int

// QoSInfo summarizes one guarantee's configuration and cost.
type QoSInfo struct {
	ID         ShadowID
	SwitchName string
	Guarantee  time.Duration
	// MaxBurstRate is the admissible insertion rate of Equation 2,
	// returned to the controller for admission-control coordination.
	MaxBurstRate float64
	// ShadowEntries is the carved shadow size; OverheadFraction the TCAM
	// share it consumes.
	ShadowEntries    int
	OverheadFraction float64
}

// Registry manages Hermes agents across a fleet of switches.
type Registry struct {
	agents map[ShadowID]*Agent
	info   map[ShadowID]QoSInfo
	bySw   map[string]ShadowID
	nextID ShadowID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		agents: make(map[ShadowID]*Agent),
		info:   make(map[ShadowID]QoSInfo),
		bySw:   make(map[string]ShadowID),
	}
}

// CreateTCAMQoS configures a performance guarantee on the switch and
// returns its descriptor plus the configuration summary (including the max
// burst rate computed from Equation 2). One guarantee per switch: creating
// a second one for the same switch fails, mirroring the single
// shadow-slice-per-table hardware model of §6.
func (r *Registry) CreateTCAMQoS(sw *tcam.Switch, guarantee time.Duration, pred Predicate) (ShadowID, QoSInfo, error) {
	return r.CreateTCAMQoSWithConfig(sw, Config{Guarantee: guarantee, Predicate: pred})
}

// CreateTCAMQoSWithConfig is CreateTCAMQoS with full agent configuration.
func (r *Registry) CreateTCAMQoSWithConfig(sw *tcam.Switch, cfg Config) (ShadowID, QoSInfo, error) {
	if _, dup := r.bySw[sw.Name()]; dup {
		return 0, QoSInfo{}, fmt.Errorf("core: switch %s already has a QoS configuration", sw.Name())
	}
	agent, err := New(sw, cfg)
	if err != nil {
		return 0, QoSInfo{}, err
	}
	r.nextID++
	id := r.nextID
	info := QoSInfo{
		ID:               id,
		SwitchName:       sw.Name(),
		Guarantee:        cfg.Guarantee,
		MaxBurstRate:     agent.MaxRate(),
		ShadowEntries:    agent.ShadowSize(),
		OverheadFraction: agent.OverheadFraction(),
	}
	r.agents[id] = agent
	r.info[id] = info
	r.bySw[sw.Name()] = id
	return id, info, nil
}

// Agent returns the live agent behind a descriptor.
func (r *Registry) Agent(id ShadowID) (*Agent, bool) {
	a, ok := r.agents[id]
	return a, ok
}

// Info returns the configuration summary behind a descriptor.
func (r *Registry) Info(id ShadowID) (QoSInfo, bool) {
	i, ok := r.info[id]
	return i, ok
}

// DeleteQoS tears down a guarantee: the switch's TCAM reverts to a single
// monolithic table (installed rules are discarded, as slice reconfiguration
// does on hardware — operators drain traffic first). Reports success.
func (r *Registry) DeleteQoS(id ShadowID) bool {
	a, ok := r.agents[id]
	if !ok {
		return false
	}
	a.sw.Uncarve()
	delete(r.bySw, a.sw.Name())
	delete(r.agents, id)
	delete(r.info, id)
	return true
}

// ModQoSConfig re-sizes an existing guarantee. The shadow slice is
// re-carved for the new bound; rules are discarded as in DeleteQoS.
// Reports success.
func (r *Registry) ModQoSConfig(id ShadowID, guarantee time.Duration) bool {
	a, ok := r.agents[id]
	if !ok {
		return false
	}
	replacement, err := a.Recarve(guarantee)
	if replacement != nil {
		r.agents[id] = replacement
	}
	if err != nil {
		return false
	}
	info := r.info[id]
	info.Guarantee = guarantee
	info.MaxBurstRate = replacement.MaxRate()
	info.ShadowEntries = replacement.ShadowSize()
	info.OverheadFraction = replacement.OverheadFraction()
	r.info[id] = info
	return true
}

// Recarve re-carves the agent's switch for a new guarantee and returns the
// agent that now runs it; the receiver is dead either way. Installed rules
// are discarded, as slice reconfiguration does on hardware; the predictor's
// history is cleared; the migration-interrupt hook, agent state rather than
// configuration, carries over. An infeasible guarantee restores the
// previous configuration and returns that agent with the error — or nil if
// even the restore failed.
func (a *Agent) Recarve(guarantee time.Duration) (*Agent, error) {
	cfg := a.cfg
	cfg.Guarantee = guarantee
	cfg.Predictor.Reset()
	a.sw.Uncarve()
	next, err := New(a.sw, cfg)
	if err != nil {
		a.sw.Uncarve()
		if next, _ = New(a.sw, a.cfg); next != nil {
			next.migInterrupt = a.migInterrupt
		}
		return next, err
	}
	next.migInterrupt = a.migInterrupt
	return next, nil
}

// ModQoSMatch swaps the guarantee predicate in place. Reports success.
func (r *Registry) ModQoSMatch(id ShadowID, pred Predicate) bool {
	a, ok := r.agents[id]
	if !ok {
		return false
	}
	a.SetPredicate(pred)
	return true
}

// QoSOverheads previews the TCAM fraction a guarantee would consume on a
// switch with the given profile, without configuring anything — the
// operator-facing trade-off explorer of §7 and the generator of Figure 14.
func QoSOverheads(profile *tcam.Profile, guarantee time.Duration) float64 {
	size := profile.MaxShiftsWithin(guarantee)
	if max := profile.Capacity / 2; size > max {
		size = max
	}
	return float64(size) / float64(profile.Capacity)
}
