// Package trace persists and replays workload artifacts — microbenchmark
// rule streams and flow-level job traces — as versioned JSON. Saved traces
// make experiments repeatable across machines and let users capture a
// generated workload once and sweep systems over the identical input (the
// same discipline the paper's replayed datasets provide).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/topo"
	"hermes/internal/workload"
)

// Kind tags the payload type of an envelope.
type Kind string

// Trace kinds.
const (
	KindRuleStream Kind = "rule-stream"
	KindJobs       Kind = "jobs"
)

// version is the envelope schema version.
const version = 1

// envelope is the on-disk frame.
type envelope struct {
	Version int             `json:"version"`
	Kind    Kind            `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

func save(w io.Writer, kind Kind, payload interface{}) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("trace: encode payload: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(envelope{Version: version, Kind: kind, Payload: raw})
}

func load(r io.Reader, kind Kind, payload interface{}) error {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("trace: decode envelope: %w", err)
	}
	if env.Version != version {
		return fmt.Errorf("trace: unsupported version %d (want %d)", env.Version, version)
	}
	if env.Kind != kind {
		return fmt.Errorf("trace: kind mismatch: file holds %q, expected %q", env.Kind, kind)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return fmt.Errorf("trace: decode payload: %w", err)
	}
	return nil
}

// --- rule streams -----------------------------------------------------------

// timedRuleJSON is the stable wire form of one timed insertion.
type timedRuleJSON struct {
	AtNS     int64  `json:"at_ns"`
	ID       uint64 `json:"id"`
	Dst      string `json:"dst"`
	Src      string `json:"src,omitempty"`
	Priority int32  `json:"priority"`
	Action   uint8  `json:"action"`
	Port     int    `json:"port"`
}

// SaveRuleStream writes a microbenchmark rule stream.
func SaveRuleStream(w io.Writer, stream []workload.TimedRule) error {
	out := make([]timedRuleJSON, 0, len(stream))
	for _, tr := range stream {
		j := timedRuleJSON{
			AtNS:     int64(tr.At),
			ID:       uint64(tr.Rule.ID),
			Dst:      tr.Rule.Match.Dst.String(),
			Priority: tr.Rule.Priority,
			Action:   uint8(tr.Rule.Action.Type),
			Port:     tr.Rule.Action.Port,
		}
		if tr.Rule.Match.Src.Len > 0 {
			j.Src = tr.Rule.Match.Src.String()
		}
		out = append(out, j)
	}
	return save(w, KindRuleStream, out)
}

// LoadRuleStream reads a rule stream saved by SaveRuleStream.
func LoadRuleStream(r io.Reader) ([]workload.TimedRule, error) {
	var in []timedRuleJSON
	if err := load(r, KindRuleStream, &in); err != nil {
		return nil, err
	}
	out := make([]workload.TimedRule, 0, len(in))
	for i, j := range in {
		dst, err := classifier.ParsePrefix(j.Dst)
		if err != nil {
			return nil, fmt.Errorf("trace: entry %d: %w", i, err)
		}
		src := classifier.Prefix{}
		if j.Src != "" {
			src, err = classifier.ParsePrefix(j.Src)
			if err != nil {
				return nil, fmt.Errorf("trace: entry %d: %w", i, err)
			}
		}
		out = append(out, workload.TimedRule{
			At: durationNS(j.AtNS),
			Rule: classifier.Rule{
				ID:       classifier.RuleID(j.ID),
				Match:    classifier.Match{Dst: dst, Src: src},
				Priority: j.Priority,
				Action:   classifier.Action{Type: classifier.ActionType(j.Action), Port: j.Port},
			},
		})
	}
	return out, nil
}

// --- job traces --------------------------------------------------------------

type flowJSON struct {
	Src     int64   `json:"src"`
	Dst     int64   `json:"dst"`
	Bytes   float64 `json:"bytes"`
	DelayNS int64   `json:"delay_ns,omitempty"`
}

type jobJSON struct {
	ID        int        `json:"id"`
	ArrivalNS int64      `json:"arrival_ns"`
	Flows     []flowJSON `json:"flows"`
}

// SaveJobs writes a flow-level job trace. Node IDs are topology-relative:
// a loaded trace is only meaningful on the topology it was generated for.
func SaveJobs(w io.Writer, jobs []workload.Job) error {
	out := make([]jobJSON, 0, len(jobs))
	for _, j := range jobs {
		jj := jobJSON{ID: j.ID, ArrivalNS: int64(j.Arrival)}
		for _, f := range j.Flows {
			jj.Flows = append(jj.Flows, flowJSON{
				Src: int64(f.Src), Dst: int64(f.Dst), Bytes: f.Bytes, DelayNS: int64(f.StartDelay),
			})
		}
		out = append(out, jj)
	}
	return save(w, KindJobs, out)
}

// LoadJobs reads a job trace saved by SaveJobs.
func LoadJobs(r io.Reader) ([]workload.Job, error) {
	var in []jobJSON
	if err := load(r, KindJobs, &in); err != nil {
		return nil, err
	}
	out := make([]workload.Job, 0, len(in))
	for _, jj := range in {
		j := workload.Job{ID: jj.ID, Arrival: durationNS(jj.ArrivalNS)}
		for _, f := range jj.Flows {
			j.Flows = append(j.Flows, workload.FlowSpec{
				Src: topo.NodeID(f.Src), Dst: topo.NodeID(f.Dst),
				Bytes: f.Bytes, StartDelay: durationNS(f.DelayNS),
			})
		}
		out = append(out, j)
	}
	return out, nil
}

func durationNS(ns int64) time.Duration { return time.Duration(ns) }
