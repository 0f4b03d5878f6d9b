package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/stats"
)

// switchTelemetry is the controller-side view of one switch: operation
// outcomes and client-observed latencies. Agent-side counters ride in the
// wire Stats fetched at snapshot time. Its footprint is fixed: counters plus
// two log-linear histograms, whatever the number of ops completed.
type switchTelemetry struct {
	failed, reconnects atomic.Uint64

	// Flow-mod latencies as the agent reported them (ns). all.Count() is
	// the number of ops that succeeded.
	guaranteed, all *obs.Histogram

	mu        sync.Mutex
	lastFault string
}

func newTelemetry() switchTelemetry {
	return switchTelemetry{guaranteed: obs.NewHistogram(), all: obs.NewHistogram()}
}

func (t *switchTelemetry) observe(res ofwire.FlowModResult) {
	t.all.RecordDuration(res.Latency)
	if res.Guaranteed {
		t.guaranteed.RecordDuration(res.Latency)
	}
}

func (t *switchTelemetry) fail() { t.failed.Add(1) }

// reconnect records one redial of the switch that came back healthy.
func (t *switchTelemetry) reconnect() { t.reconnects.Add(1) }

// fault records the cause of the most recent connection-level failure.
func (t *switchTelemetry) fault(err error) {
	t.mu.Lock()
	t.lastFault = err.Error()
	t.mu.Unlock()
}

// Counters are one switch's monotonic controller-side op counters.
type Counters struct {
	OpsOK, OpsFailed uint64
	// Retries is always 0: the fleet reissues nothing. A diverted insert
	// is reported as such (OpResult.Result) and left to the caller.
	Retries uint64
	// Reconnects counts redials of a dead control channel that answered a
	// health probe afterwards. The fleet does not repair what the switch
	// lost in between; that is the intent reconciler's job.
	Reconnects uint64
}

// SwitchSnapshot is one switch's slice of a fleet snapshot.
type SwitchSnapshot struct {
	ID      string
	Healthy bool         // circuit closed and stats reachable
	Breaker BreakerState // circuit state at snapshot time
	Trips   uint64       // times the circuit has opened

	Counters
	// LastFault is the cause of the most recent connection-level failure
	// (dial, echo probe, or flow-mod wire error); empty while the switch
	// has never faulted.
	LastFault string

	// Stats are the agent's own counters fetched over the wire; nil when
	// the switch was unreachable.
	Stats *ofwire.Stats

	// Guaranteed / All are frozen clones of the flow-mod latency
	// distributions (ns). Their quantiles are histogram estimates, within
	// 1/32 of the true value.
	Guaranteed, All *obs.Histogram
}

// Snapshot is the merged, fleet-wide telemetry view: per-switch breakdown
// plus totals and latency percentiles across every switch.
type Snapshot struct {
	Switches []SwitchSnapshot

	// Total merges the agent counters of every reachable switch.
	Total ofwire.Stats
	// Reachable counts switches whose stats were fetched.
	Reachable int

	// Guaranteed and All merge the per-switch latency distributions.
	Guaranteed, All *obs.Histogram
}

// snapshot copies the telemetry, the histograms as frozen clones.
func (t *switchTelemetry) snapshot(s *SwitchSnapshot) {
	t.mu.Lock()
	s.LastFault = t.lastFault
	t.mu.Unlock()
	s.Guaranteed, s.All = t.guaranteed.Clone(), t.all.Clone()
	s.Counters = Counters{
		OpsOK:      s.All.Count(),
		OpsFailed:  t.failed.Load(),
		Reconnects: t.reconnects.Load(),
	}
}

// mergeStats accumulates one switch's agent counters into the total.
func mergeStats(total *ofwire.Stats, s *ofwire.Stats) {
	total.Inserts += s.Inserts
	total.ShadowInserts += s.ShadowInserts
	total.MainInserts += s.MainInserts
	total.Bypasses += s.Bypasses
	total.Violations += s.Violations
	total.Migrations += s.Migrations
	total.ShadowOcc += s.ShadowOcc
	total.MainOcc += s.MainOcc
	total.ShadowSize += s.ShadowSize
}

// finalize sorts the per-switch views and merges the fleet-wide totals.
func (s *Snapshot) finalize() {
	sort.Slice(s.Switches, func(i, j int) bool { return s.Switches[i].ID < s.Switches[j].ID })
	s.Guaranteed, s.All = obs.NewHistogram(), obs.NewHistogram()
	for i := range s.Switches {
		sw := &s.Switches[i]
		s.Guaranteed.Merge(sw.Guaranteed)
		s.All.Merge(sw.All)
		if sw.Stats != nil {
			mergeStats(&s.Total, sw.Stats)
			s.Reachable++
		}
	}
}

// Table renders the snapshot as a per-switch table with a totals row,
// matching the repo's plain-text harness style. Latencies are the
// guaranteed-path quantiles in ms.
func (s *Snapshot) Table() *stats.Table {
	tab := &stats.Table{
		Title: "fleet telemetry",
		Headers: []string{"switch", "circuit", "ok", "failed", "reconn",
			"inserts", "shadow", "main", "violations", "p50ms", "p99ms"},
	}
	row := func(id, circuit string, n Counters, st *ofwire.Stats, lat *obs.Histogram) {
		ins, shadow, main, viol := "-", "-", "-", "-"
		if st != nil {
			ins = fmt.Sprintf("%d", st.Inserts)
			shadow = fmt.Sprintf("%d", st.ShadowInserts)
			main = fmt.Sprintf("%d", st.MainInserts)
			viol = fmt.Sprintf("%d", st.Violations)
		}
		tab.AddRow(id, circuit,
			fmt.Sprintf("%d", n.OpsOK), fmt.Sprintf("%d", n.OpsFailed),
			fmt.Sprintf("%d", n.Reconnects),
			ins, shadow, main, viol,
			fmt.Sprintf("%.3f", lat.Quantile(0.5)/1e6), fmt.Sprintf("%.3f", lat.Quantile(0.99)/1e6))
	}
	var total Counters
	for i := range s.Switches {
		sw := &s.Switches[i]
		row(sw.ID, sw.Breaker.String(), sw.Counters, sw.Stats, sw.Guaranteed)
		total.OpsOK += sw.OpsOK
		total.OpsFailed += sw.OpsFailed
		total.Reconnects += sw.Reconnects
	}
	row("TOTAL", fmt.Sprintf("%d/%d up", s.Reachable, len(s.Switches)), total, &s.Total, s.Guaranteed)
	return tab
}
