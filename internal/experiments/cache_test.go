package experiments

import "testing"

// TestCacheSweepShape runs the FDRC sweep at scripts/check.sh's scale and
// checks the structural invariants plus the policy ordering the committed
// BENCH_cache.json gates at full scale: frequency-based promotion must beat
// recency under cold-scan pollution at s ≥ 1.1 with the cache at ≤ 25% of
// the rule set, on both rule sets. Every overlap cell must install covers,
// or it would not exercise the shielding it exists for. Below this scale
// the overlap set's hot rules fit in a 25% cache under either policy, and
// the two tie.
func TestCacheSweepShape(t *testing.T) {
	res, data := CacheSweepData(0.5)
	if res.ID != "cache" {
		t.Fatalf("ID = %q", res.ID)
	}
	wantCells := 2 * len(cacheFracSweep) * len(cacheZipfSweep) * len(cachePolicies)
	if len(data.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(data.Cells), wantCells)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != wantCells {
		t.Fatalf("table rows = %d, want %d", len(res.Tables[0].Rows), wantCells)
	}
	for _, c := range data.Cells {
		if c.HitRatio < 0 || c.HitRatio > 1 {
			t.Errorf("%s %s s=%.2f cap=%.2f: hit ratio %v out of range",
				c.RuleSet, c.Policy, c.ZipfS, c.CapFrac, c.HitRatio)
		}
		if c.RuleSet != cacheDisjoint && c.RuleSet != cacheOverlap {
			t.Errorf("cell rule set %q, want %q or %q", c.RuleSet, cacheDisjoint, cacheOverlap)
		}
		if c.RuleSet == cacheOverlap && c.Covers == 0 {
			t.Errorf("overlap %s s=%.2f cap=%.2f installed no cover", c.Policy, c.ZipfS, c.CapFrac)
		}
	}
	if !data.LFUBeatsLRU {
		t.Error("policy verdict: lfu_beats_lru=false, want true")
	}
	if data.MinHitRatio <= 0.3 {
		t.Errorf("min lfu hit ratio = %v, want > 0.3", data.MinHitRatio)
	}
}

// TestCacheRegistered ensures the sweep is reachable through the registry
// and listed in presentation order.
func TestCacheRegistered(t *testing.T) {
	if _, ok := registry["cache"]; !ok {
		t.Fatal("cache not in registry")
	}
	found := false
	for _, id := range Order() {
		if id == "cache" {
			found = true
		}
	}
	if !found {
		t.Fatal("cache not in Order()")
	}
}
