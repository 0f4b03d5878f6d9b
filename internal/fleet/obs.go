package fleet

import "hermes/internal/obs"

// registerObs exposes one worker on the fleet's obs registry. Counters,
// gauges and the breaker state are scrape-time closures over state the
// worker already maintains (telemetry, breaker, queue, groups in flight),
// so the send and completion path gains no new synchronization; the live
// instruments (the wire client's in-flight gauge and RTT histogram, the
// worker's ops-per-group and queue-wait histograms) record locklessly.
//
// Labels carry the switch ID, so a fleet-wide /metrics page breaks every
// series down per switch the way the paper's Fig. 2 deployment would need.
func registerObs(reg *obs.Registry, w *worker) {
	if reg == nil {
		return
	}
	lbl := obs.Labels("switch", w.id)

	w.inflight = reg.GaugeL("hermes_ofwire_inflight", lbl,
		"control-channel requests awaiting replies")
	w.rtt = reg.HistogramL("hermes_ofwire_rtt_ns", lbl, "ns",
		"client-observed control-channel round-trip time")

	w.groupOps = reg.HistogramL("hermes_fleet_frame_ops", lbl, "",
		"flow-mods per group written: one flow-mod-batch frame (WireBatch), or one flow-mod frame each")
	w.q.wait = reg.HistogramL("hermes_fleet_queue_wait_ns", lbl, "ns",
		"time a flow-mod waited in the worker's queue, from submit until its group was taken off to be written; sampled: one submit in 8")

	reg.GaugeFunc("hermes_fleet_queue_depth", lbl,
		"flow-mods waiting in the worker's bounded queue",
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(len(w.q.ops)) })
	reg.GaugeFunc("hermes_fleet_frames_in_flight", lbl,
		"groups of frames written and not yet answered (at most 2)",
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(len(w.inFlight)) })
	reg.GaugeFunc("hermes_fleet_breaker_state", lbl,
		"circuit state: 0 closed, 1 open, 2 half-open",
		func() float64 { st, _ := w.brk.snapshot(); return float64(st) })
	reg.CounterFunc("hermes_fleet_breaker_trips_total", lbl,
		"times the switch's circuit opened",
		func() uint64 { _, trips := w.brk.snapshot(); return trips })

	reg.CounterFunc("hermes_fleet_ops_ok_total", lbl,
		"flow-mods acknowledged by the switch",
		w.tele.all.Count)
	reg.CounterFunc("hermes_fleet_ops_failed_total", lbl,
		"flow-mods failed (wire fault or open circuit)",
		w.tele.failed.Load)
	reg.CounterFunc("hermes_fleet_reconnects_total", lbl,
		"redials of a dead control channel that came back healthy",
		w.tele.reconnects.Load)
}
