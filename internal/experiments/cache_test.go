package experiments

import "testing"

// TestCacheSweepShape runs the FDRC sweep at test scale and checks the
// structural invariants plus the policy ordering the committed
// BENCH_cache.json gates at full scale: frequency- and cost-based
// promotion must beat recency under cold-scan pollution at s ≥ 1.1 with
// the cache at ≤ 25% of the rule set.
func TestCacheSweepShape(t *testing.T) {
	res, data := CacheSweepData(testScale)
	if res.ID != "cache" {
		t.Fatalf("ID = %q", res.ID)
	}
	wantCells := len(cacheFracSweep) * len(cacheZipfSweep) * len(cachePolicies)
	if len(data.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(data.Cells), wantCells)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != wantCells {
		t.Fatalf("table rows = %d, want %d", len(res.Tables[0].Rows), wantCells)
	}
	for _, c := range data.Cells {
		if c.HitRatio < 0 || c.HitRatio > 1 {
			t.Errorf("%s s=%.2f cap=%.2f: hit ratio %v out of range",
				c.Policy, c.ZipfS, c.CapFrac, c.HitRatio)
		}
	}
	if !data.LFUBeatsLRU || !data.CostBeatsLR {
		t.Errorf("policy verdicts: lfu_beats_lru=%v cost_beats_lru=%v, want both true",
			data.LFUBeatsLRU, data.CostBeatsLR)
	}
	if data.MinHitRatio <= 0.3 {
		t.Errorf("min {lfu,cost} hit ratio = %v, want > 0.3", data.MinHitRatio)
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
