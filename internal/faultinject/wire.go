package faultinject

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hermes/internal/workload"
)

// ErrInjectedReset is the error surfaced by a connection the wire plan
// decided to reset. Callers treat it like any peer-initiated teardown.
var ErrInjectedReset = errors.New("faultinject: injected connection reset")

// ErrInjectedPartition is the error a blocked reader surfaces once a
// network partition heals. The connection is closed alongside it, so the
// caller re-dials instead of resuming a stream whose framing it can no
// longer trust.
var ErrInjectedPartition = errors.New("faultinject: injected network partition")

// WireFault is one scripted decision for a single Read or Write call. The
// zero value passes the operation through untouched. At most one of Reset,
// Corrupt, and PartialWrite should be set; Delay composes with any of them.
type WireFault struct {
	// Delay sleeps before the operation proceeds (also how stalls are
	// expressed: a delay long enough to trip the caller's deadline).
	Delay time.Duration
	// Reset closes the underlying connection instead of performing the
	// operation, modeling a peer RST mid-exchange.
	Reset bool
	// Corrupt flips the high bit of the first byte of the buffer. Both ofwire
	// ends write each frame with a single Write, so that byte is always the
	// frame's version: the peer *detects* the damage (bad version) and drops
	// the connection rather than silently accepting a changed rule.
	Corrupt bool
	// PartialWrite, when > 0 on a write, transmits only that many bytes and
	// then closes the connection, modeling a crash mid-frame.
	PartialWrite int
	// PartialFrac, when in (0, 1), cuts a write at that fraction of the
	// buffer (at least one byte) and closes the connection. Unlike
	// PartialWrite it scales to the frame being written, so it reaches
	// into the body of a large vectored batch frame — modeling a crash
	// mid-batch rather than mid-header.
	PartialFrac float64
	// Partition, when > 0, opens a plan-wide bidirectional blackhole for
	// that interval: every wrapped connection swallows writes (reported as
	// successful, never delivered) and blocks reads until the partition
	// heals, at which point blocked readers get ErrInjectedPartition on a
	// closed connection. The triggering operation itself still proceeds.
	Partition time.Duration
}

func (f WireFault) active() bool {
	return f.Delay > 0 || f.Reset || f.Corrupt || f.PartialWrite > 0 ||
		f.PartialFrac > 0 || f.Partition > 0
}

// WireConfig parameterizes a Wire plan. With a Script the listed faults are
// consumed in operation order (shared by both directions) and the
// probability fields are ignored; otherwise each Read/Write draws
// independently from the seeded stream of its connection direction. Over an
// ofwire connection one Write is one whole frame, so a seeded plan draws
// once per frame written; reads go through a buffered reader, so a Read
// draw covers whatever the buffer fill returns, often a whole frame.
type WireConfig struct {
	// Seed roots every random stream the plan derives.
	Seed int64

	// DelayProb adds a uniform delay in (0, MaxDelay] to an operation.
	DelayProb float64
	MaxDelay  time.Duration
	// StallProb adds a fixed Stall delay — sized by the test to exceed the
	// client's request deadline.
	StallProb float64
	Stall     time.Duration
	// ResetProb closes the connection instead of performing the operation.
	ResetProb float64
	// CorruptProb damages the first byte of the buffer (writes only): over
	// ofwire, the version byte of the frame written.
	CorruptProb float64
	// PartialProb truncates a write mid-frame and closes the connection.
	PartialProb float64
	// PartialMidFrame stretches a firing partial write across the whole
	// frame instead of its first 8 (header) bytes: the cut lands at a
	// seeded fraction of the frame, so large vectored batch frames are
	// truncated mid-body. It reinterprets an existing draw rather than
	// consuming a new one, so enabling it does not perturb the schedule
	// of any other fault class.
	PartialMidFrame bool
	// PartitionProb opens a bidirectional blackhole lasting PartitionFor.
	// The extra decision draws are only consumed when PartitionProb > 0, so
	// plans that never partition keep their historical seeded schedules.
	PartitionProb float64
	PartitionFor  time.Duration

	// Script, when non-empty, replaces the probabilistic schedule with an
	// explicit one. Operations beyond the script's end pass through clean.
	Script []WireFault
}

// WireCounts tallies the faults a plan actually injected.
type WireCounts struct {
	Delays, Stalls, Resets, Corrupts, Partials, Partitions int
}

// Total is the number of operations the plan perturbed.
func (c WireCounts) Total() int {
	return c.Delays + c.Stalls + c.Resets + c.Corrupts + c.Partials + c.Partitions
}

// Wire is a fault plan for one or more connections. Wrap each accepted or
// dialed net.Conn; each wrapped connection gets independent decision
// streams per direction (derived from the root seed and the connection's
// wrap index), so schedules replay even when connections race each other.
type Wire struct {
	cfg WireConfig

	mu     sync.Mutex
	conns  uint64
	cursor int // script position
	counts WireCounts
	// healCh is non-nil while a partition is in force; it is closed (and
	// cleared) when the partition heals. Readers block on it without
	// holding mu.
	healCh chan struct{}
}

// NewWire builds a plan from the config.
func NewWire(cfg WireConfig) *Wire { return &Wire{cfg: cfg} }

// Counts returns the faults injected so far across all wrapped connections.
func (w *Wire) Counts() WireCounts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.counts
}

// Partition opens a bidirectional blackhole across every connection the
// plan wraps, healing after d. While it is in force, writes are swallowed
// (reported successful, never delivered) and reads block; at heal, blocked
// readers get ErrInjectedPartition on a closed connection so callers
// re-dial cleanly. A partition already in force is not extended.
func (w *Wire) Partition(d time.Duration) {
	w.mu.Lock()
	if w.healCh != nil {
		w.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	w.healCh = ch
	w.counts.Partitions++
	w.mu.Unlock()
	time.AfterFunc(d, func() {
		w.mu.Lock()
		if w.healCh == ch {
			w.healCh = nil
		}
		w.mu.Unlock()
		close(ch)
	})
}

// Partitioned reports whether a partition is currently in force.
func (w *Wire) Partitioned() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healCh != nil
}

// partitionCh returns the heal channel when a partition is in force, nil
// otherwise. Callers block on the channel without holding the plan lock.
func (w *Wire) partitionCh() chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healCh
}

// Wrap decorates a connection with the plan's fault schedule.
func (w *Wire) Wrap(c net.Conn) net.Conn {
	w.mu.Lock()
	idx := w.conns
	w.conns++
	w.mu.Unlock()
	return &conn{
		Conn:  c,
		plan:  w,
		read:  workload.SubStream(w.cfg.Seed, idx*2),
		write: workload.SubStream(w.cfg.Seed, idx*2+1),
	}
}

// Dial connects and wraps in one step — shaped to drop into a dial seam
// such as fleet's Config.Dial.
func (w *Wire) Dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return w.Wrap(c), nil
}

// next produces the decision for one operation. Scripted plans consume the
// shared cursor; seeded plans draw from the per-direction stream.
func (w *Wire) next(src interface{ Float64() float64 }, write bool) WireFault {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.cfg.Script) > 0 {
		if w.cursor >= len(w.cfg.Script) {
			return WireFault{}
		}
		f := w.cfg.Script[w.cursor]
		w.cursor++
		w.count(f)
		return f
	}
	var f WireFault
	// One draw per fault class keeps streams aligned regardless of which
	// faults fire.
	delay := src.Float64()
	stall := src.Float64()
	reset := src.Float64()
	corrupt := src.Float64()
	partial := src.Float64()
	frac := src.Float64()
	if w.cfg.PartitionProb > 0 && src.Float64() < w.cfg.PartitionProb {
		f.Partition = w.cfg.PartitionFor
	}
	switch {
	case reset < w.cfg.ResetProb:
		f.Reset = true
	case write && partial < w.cfg.PartialProb:
		if w.cfg.PartialMidFrame {
			f.PartialFrac = frac
		} else {
			f.PartialWrite = 1 + int(frac*7) // within the 8-byte header
		}
	case write && corrupt < w.cfg.CorruptProb:
		f.Corrupt = true
	}
	switch {
	case stall < w.cfg.StallProb:
		f.Delay = w.cfg.Stall
	case delay < w.cfg.DelayProb && w.cfg.MaxDelay > 0:
		f.Delay = time.Duration(frac*float64(w.cfg.MaxDelay)) + time.Microsecond
	}
	w.count(f)
	return f
}

func (w *Wire) count(f WireFault) {
	switch {
	case f.Reset:
		w.counts.Resets++
	case f.PartialWrite > 0 || f.PartialFrac > 0:
		w.counts.Partials++
	case f.Corrupt:
		w.counts.Corrupts++
	}
	switch {
	case f.Delay == w.cfg.Stall && f.Delay > 0:
		w.counts.Stalls++
	case f.Delay > 0:
		w.counts.Delays++
	}
}

// conn injects the plan's schedule around an underlying net.Conn.
type conn struct {
	net.Conn
	plan  *Wire
	read  interface{ Float64() float64 }
	write interface{ Float64() float64 }
}

func (c *conn) Read(b []byte) (int, error) {
	f := c.plan.next(c.read, false)
	if f.Partition > 0 {
		c.plan.Partition(f.Partition)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	// A partitioned link delivers nothing: block until the heal timer
	// fires, then fail the connection so the caller re-dials rather than
	// resuming a stream whose framing may be mid-frame.
	if ch := c.plan.partitionCh(); ch != nil {
		<-ch
		c.Conn.Close()
		return 0, ErrInjectedPartition
	}
	if f.Reset {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	f := c.plan.next(c.write, true)
	if f.Partition > 0 {
		c.plan.Partition(f.Partition)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	// During a partition, writes vanish into the blackhole: the local
	// stack accepts them (success) but the peer never sees the bytes, so
	// the caller's request deadline is what surfaces the outage.
	if c.plan.Partitioned() {
		return len(b), nil
	}
	if f.PartialFrac > 0 && f.PartialFrac < 1 {
		if cut := int(f.PartialFrac * float64(len(b))); cut > 0 && cut < len(b) {
			f.PartialWrite = cut
		}
	}
	switch {
	case f.Reset:
		c.Conn.Close()
		return 0, ErrInjectedReset
	case f.PartialWrite > 0 && f.PartialWrite < len(b):
		n, err := c.Conn.Write(b[:f.PartialWrite])
		c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultinject: write cut short after %d/%d bytes: %w",
			n, len(b), ErrInjectedReset)
	case f.Corrupt && len(b) > 0:
		damaged := append([]byte(nil), b...)
		damaged[0] ^= 0x80
		return c.Conn.Write(damaged)
	default:
		return c.Conn.Write(b)
	}
}
