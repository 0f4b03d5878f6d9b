// Package faultinject is the deterministic chaos layer: seeded or scripted
// fault schedules injected at the two seams the rest of the system already
// exposes — the wire (a net.Conn wrapper under the ofwire protocol) and the
// switch (TCAM op faults, crash/restart, and Fig.-7 migration-step
// interrupts).
//
// Determinism contract: every decision is drawn from a seeded *rand.Rand (a
// workload.SubStream, one per independent stream) or consumed from an
// explicit script; the package never reads the wall clock
// (time.Sleep with pre-decided durations is the only timing primitive).
// Re-running a harness with the same seed therefore replays the same fault
// schedule, which is what makes chaos verdicts reproducible and regressions
// bisectable. The package depends on core and tcam for the hook types; the
// production packages never import it.
package faultinject
