package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hermes/internal/experiments"
)

// cacheReport is the BENCH_cache.json document: the deterministic
// virtual-time sweep (hit ratios and the policy verdict booleans
// scripts/check.sh gates on).
type cacheReport struct {
	GeneratedAt string  `json:"generated_at"`
	Scale       float64 `json:"scale"`
	experiments.CacheData
}

// runCacheJSON runs the cache sweep and writes the report to path.
func runCacheJSON(path string, scale float64) error {
	res, data := experiments.CacheSweepData(scale)
	fmt.Println(res)

	rep := cacheReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale,
		CacheData:   data,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
