package faultinject

import (
	"time"

	"hermes/internal/workload"
)

// The channel seam in virtual time: while Wire injects faults into live
// net.Conn traffic, deterministic single-goroutine harnesses (the
// reconciler convergence experiment) model the control channel directly.
// ChannelSchedule gives them a seeded script of channel-level faults —
// transient resets and healing partitions — on the same virtual clock as
// SwitchSchedule, drawn from an independent stream so adding channel chaos
// to a harness never perturbs an existing switch schedule.

// ChannelEventKind names one control-channel fault.
type ChannelEventKind uint8

// The channel-level fault kinds a schedule can carry.
const (
	// ChannelReset fails exactly the operations issued at the event's
	// instant (a dropped TCP connection: the in-flight request errors,
	// the next attempt re-dials and proceeds).
	ChannelReset ChannelEventKind = iota
	// ChannelPartition blackholes the channel for [At, At+For): every
	// operation issued inside the window fails, and the harness may not
	// observe or program the switch until the partition heals.
	ChannelPartition
)

func (k ChannelEventKind) String() string {
	switch k {
	case ChannelReset:
		return "reset"
	case ChannelPartition:
		return "partition"
	default:
		return "unknown"
	}
}

// ChannelEvent is one scheduled control-channel fault in virtual time.
type ChannelEvent struct {
	At   time.Duration
	Kind ChannelEventKind
	// For is the partition duration; zero for resets.
	For time.Duration
}

// HealAt is the virtual instant the channel recovers: the event time for a
// reset, the end of the blackhole window for a partition.
func (e ChannelEvent) HealAt() time.Duration {
	return e.At + e.For
}

// ChannelSchedule generates n control-channel fault events spread over
// (0, horizon], sorted by time. Partition durations are drawn in
// (0, horizon/8] so a single outage never swallows the whole run. The
// same seed yields the same schedule, and the stream is independent of
// SwitchSchedule's for the same seed.
func ChannelSchedule(seed int64, horizon time.Duration, n int) []ChannelEvent {
	rng := workload.SubStream(seed, 11)
	events := make([]ChannelEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := ChannelEvent{
			At: time.Duration(rng.Int63n(int64(horizon))) + 1,
		}
		if rng.Intn(2) == 0 {
			ev.Kind = ChannelReset
		} else {
			ev.Kind = ChannelPartition
			ev.For = time.Duration(rng.Int63n(int64(horizon/8))) + 1
		}
		events = append(events, ev)
	}
	// Insertion sort, matching sortEvents: schedules are short.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	return events
}
