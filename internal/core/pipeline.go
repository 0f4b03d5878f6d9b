package core

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// This file implements §6's "Supporting Multiple TCAM Tables": modern
// switches expose a pipeline of TCAM tables, and Hermes carves each one
// independently into a shadow and a main slice. Each logical table can
// carry a different guarantee — attractive when tables serve radically
// different functions (e.g. an ACL table needing 1ms updates next to a
// forwarding table content with 10ms).
//
// Pipeline semantics are preserved: each logical table keeps its original
// table-miss behaviour (goto-next / controller / drop), while every shadow
// slice uses "goto the paired main slice" on miss, exactly as in the
// single-table design.

// MissBehavior is a logical table's action when no rule matches.
type MissBehavior uint8

// Table-miss behaviours (§6).
const (
	// MissGotoNext continues at the next logical table.
	MissGotoNext MissBehavior = iota
	// MissController punts unmatched packets to the controller.
	MissController
	// MissDrop discards unmatched packets.
	MissDrop
)

// TableSpec configures one logical table of a pipeline.
type TableSpec struct {
	// Name identifies the table (e.g. "acl", "forwarding").
	Name string
	// Capacity is the logical table's TCAM entry budget.
	Capacity int
	// Miss is the original table-miss behaviour to preserve.
	Miss MissBehavior
	// Config tunes the table's Hermes agent; zero Guarantee leaves the
	// table unmanaged (a plain monolithic slice with no guarantees).
	Config Config
}

// PipelineTable is one logical table at runtime.
type PipelineTable struct {
	Spec  TableSpec
	Agent *Agent      // nil when unmanaged
	Raw   *tcam.Table // set when unmanaged
	sw    *tcam.Switch
}

// Managed reports whether the table runs under a Hermes guarantee.
func (t *PipelineTable) Managed() bool { return t.Agent != nil }

// Pipeline is a multi-table switch under per-table Hermes management.
type Pipeline struct {
	name    string
	profile *tcam.Profile
	tables  []*PipelineTable
}

// NewPipeline builds a pipeline on a switch model. Each spec gets its own
// hardware slice pair (or single slice when unmanaged). The per-table
// switches share the profile but have independent control-plane queues,
// mirroring hardware where each TCAM bank has its own update engine.
func NewPipeline(name string, profile *tcam.Profile, specs []TableSpec) (*Pipeline, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: pipeline %q has no tables", name)
	}
	p := &Pipeline{name: name, profile: profile}
	for i, spec := range specs {
		if spec.Capacity <= 0 || spec.Capacity > profile.Capacity {
			return nil, fmt.Errorf("core: pipeline %q table %q: capacity %d out of range",
				name, spec.Name, spec.Capacity)
		}
		// Each logical table is backed by a dedicated bank with the
		// spec's capacity.
		bankProfile := *profile
		bankProfile.Capacity = spec.Capacity
		sw := tcam.NewSwitch(fmt.Sprintf("%s/%s", name, spec.Name), &bankProfile)
		pt := &PipelineTable{Spec: spec, sw: sw}
		if spec.Config.Guarantee > 0 {
			agent, err := New(sw, spec.Config)
			if err != nil {
				return nil, fmt.Errorf("core: pipeline %q table %q: %w", name, spec.Name, err)
			}
			pt.Agent = agent
		} else {
			pt.Raw = sw.Table()
		}
		p.tables = append(p.tables, pt)
		_ = i
	}
	return p, nil
}

// Tables returns the pipeline's logical tables in match order.
func (p *Pipeline) Tables() []*PipelineTable { return p.tables }

// Table returns a logical table by name.
func (p *Pipeline) Table(name string) (*PipelineTable, bool) {
	for _, t := range p.tables {
		if t.Spec.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Insert routes a flow-mod to the named logical table.
func (p *Pipeline) Insert(now time.Duration, table string, r classifier.Rule) (Result, error) {
	t, ok := p.Table(table)
	if !ok {
		return Result{}, fmt.Errorf("core: pipeline %q: unknown table %q", p.name, table)
	}
	if t.Managed() {
		return t.Agent.Insert(now, r)
	}
	cost, err := t.Raw.Insert(r)
	if err != nil {
		return Result{}, err
	}
	return Result{Path: PathMain, Latency: cost, Completed: t.sw.Submit(now, cost)}, nil
}

// Delete routes a rule deletion to the named logical table.
func (p *Pipeline) Delete(now time.Duration, table string, id classifier.RuleID) (Result, error) {
	t, ok := p.Table(table)
	if !ok {
		return Result{}, fmt.Errorf("core: pipeline %q: unknown table %q", p.name, table)
	}
	if t.Managed() {
		return t.Agent.Delete(now, id)
	}
	cost, present := t.Raw.Delete(id)
	if !present {
		return Result{}, fmt.Errorf("%w: %d in %s", ErrUnknownRule, id, table)
	}
	return Result{Latency: cost, Completed: t.sw.Submit(now, cost)}, nil
}

// Tick drives every managed table's Rule Manager.
func (p *Pipeline) Tick(now time.Duration) {
	for _, t := range p.tables {
		if t.Managed() {
			// A migration this starts completes on its own: the agent
			// advances on its next call.
			t.Agent.Tick(now)
		}
	}
}

// PacketVerdict is the outcome of a pipeline lookup.
type PacketVerdict uint8

// Lookup outcomes.
const (
	// VerdictForward means a rule matched and forwards the packet.
	VerdictForward PacketVerdict = iota
	// VerdictController means the packet punts to the controller.
	VerdictController
	// VerdictDrop means the packet is discarded.
	VerdictDrop
)

// Lookup walks the pipeline: within each logical table the shadow slice is
// consulted before the main slice; on a logical-table miss the original
// miss behaviour applies (§6). Returns the matching rule (if any), which
// logical table matched, and the verdict.
func (p *Pipeline) Lookup(dst, src uint32) (classifier.Rule, string, PacketVerdict) {
	for _, t := range p.tables {
		var r classifier.Rule
		var ok bool
		if t.Managed() {
			r, ok = t.Agent.Lookup(dst, src)
		} else {
			r, ok = t.Raw.Lookup(dst, src)
		}
		if ok {
			switch r.Action.Type {
			case classifier.ActionGotoNext:
				continue // explicit goto-next rule: fall through
			case classifier.ActionDrop:
				return r, t.Spec.Name, VerdictDrop
			case classifier.ActionController:
				return r, t.Spec.Name, VerdictController
			default:
				return r, t.Spec.Name, VerdictForward
			}
		}
		switch t.Spec.Miss {
		case MissGotoNext:
			continue
		case MissController:
			return classifier.Rule{}, t.Spec.Name, VerdictController
		case MissDrop:
			return classifier.Rule{}, t.Spec.Name, VerdictDrop
		}
	}
	// Walked off the end of the pipeline: drop (OpenFlow default).
	return classifier.Rule{}, "", VerdictDrop
}
