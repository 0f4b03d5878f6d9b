// Package rulecache implements the flow-driven rule caching hierarchy
// (FDRC, DESIGN.md §16): it turns the TCAM into the top tier of a two-tier
// lookup hierarchy, backed by an unbounded switch-CPU software table with
// its own latency profile.
//
// The software tier (SoftTable) is *authoritative*: it holds every rule the
// controller installed, with the (priority, seq) metadata that decides
// first-match ties. The hardware tier caches the popular subset. A cache
// Manager tracks per-rule hit counts with zero-alloc sharded counters fed
// from the agent's lock-free snapshot read path and, once per agent tick,
// re-ranks rules by hit count (LFU; LRU's recency epochs remain as the
// baseline it is measured against), promoting the winners into the TCAM
// and demoting the rest. Eviction is dependency-safe: the agent shields
// every demoted rule that still beats a resident with a cover rule (its own
// match, at its priority) whose action punts matching packets to the
// software tier, so hardware-tier semantics stay bit-identical to the
// single-table oracle.
//
// Everything here is virtual-time only (profile costs are constants, hits
// are counted against an epoch the agent advances), so the package sits on
// the determinism lint's analyzed path like sim/tcam/classifier.
package rulecache

import (
	"fmt"
	"strings"
	"time"
)

// Policy selects how the Manager scores rules when deciding which ones
// deserve a hardware slot.
type Policy uint8

const (
	// PolicyLFU ranks by frequency: total hit count. It is the zero value,
	// so a Config that names no policy ranks by hits.
	PolicyLFU Policy = iota
	// PolicyLRU ranks by recency: the epoch of the rule's last hit. It is
	// the baseline the cache sweep measures PolicyLFU against.
	PolicyLRU
)

func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps the CLI spellings ("lru", "lfu") onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "lru":
		return PolicyLRU, nil
	case "lfu":
		return PolicyLFU, nil
	default:
		return 0, fmt.Errorf("rulecache: unknown policy %q (want lru or lfu)", s)
	}
}

// SoftProfile is the virtual-time update-cost model of the switch-CPU
// software table, following the FPGA/software flow-table measurements cited
// in PAPERS.md: software updates are far cheaper than TCAM slot moves. All
// costs are deterministic constants so cached experiments stay replayable.
type SoftProfile struct {
	Insert time.Duration // install a rule into the software table
	Delete time.Duration // remove a rule
	Modify time.Duration // rewrite a rule's action in place
}

// DefaultSoftProfile is used wherever a profile field is left zero.
var DefaultSoftProfile = SoftProfile{
	Insert: 2 * time.Microsecond,
	Delete: 1 * time.Microsecond,
	Modify: 1 * time.Microsecond,
}

func (p SoftProfile) withDefaults() SoftProfile {
	if p.Insert <= 0 {
		p.Insert = DefaultSoftProfile.Insert
	}
	if p.Delete <= 0 {
		p.Delete = DefaultSoftProfile.Delete
	}
	if p.Modify <= 0 {
		p.Modify = DefaultSoftProfile.Modify
	}
	return p
}

// Config tunes the caching hierarchy.
type Config struct {
	// Capacity is the maximum number of controller rules resident in the
	// hardware tier (counted as original rules, not TCAM entries — a
	// partitioned resident may occupy several slots). Required, > 0.
	Capacity int
	// Policy picks the promotion/demotion ranking. The zero value is
	// PolicyLFU.
	Policy Policy
	// MaxMovesPerRebalance bounds how many promotions plus demotions a
	// single rebalance pass may perform, so a tick never turns into an
	// unbounded TCAM rewrite. Default 64.
	MaxMovesPerRebalance int
	// SampleStride records popularity on one lookup in SampleStride,
	// selected by a deterministic hash of the packet header and the recency
	// epoch (so the sampled flow-subset rotates every tick). Off sample
	// points the hardware-tier hit path touches no shared state, keeping
	// the cached lookup within its overhead budget; hardware-hit counts are
	// reported as sampled count × stride. Rounded up to a power of two;
	// 1 records every hit exactly. Default 8.
	SampleStride int
}

// WithDefaults returns the config with defaults applied.
func (c Config) WithDefaults() Config {
	if c.MaxMovesPerRebalance <= 0 {
		c.MaxMovesPerRebalance = 64
	}
	if c.SampleStride <= 0 {
		c.SampleStride = 8
	}
	for c.SampleStride&(c.SampleStride-1) != 0 {
		c.SampleStride++ // round up to a power of two
	}
	return c
}
