package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/ofwire"
	"hermes/internal/stats"
)

// TestTelemetryObserveAllocatesNothing: recording a completed op costs no
// allocation, however many came before it.
func TestTelemetryObserveAllocatesNothing(t *testing.T) {
	tele := newTelemetry()
	res := ofwire.FlowModResult{Latency: 137 * time.Microsecond, Guaranteed: true}
	if n := testing.AllocsPerRun(1000, func() { tele.observe(res) }); n != 0 {
		t.Fatalf("observe allocates %v per op, want 0", n)
	}
}

// TestSnapshotQuantilesTrackExactSummary: after 100k ops spread over four
// switches, every quantile the snapshot reports — per switch and merged — is
// within the histogram's 1/32 bucket width of the exact order statistic of
// the same samples.
func TestSnapshotQuantilesTrackExactSummary(t *testing.T) {
	const ops, switches = 100_000, 4
	rng := rand.New(rand.NewSource(7))
	teles := make([]switchTelemetry, switches)
	for i := range teles {
		teles[i] = newTelemetry()
	}
	exactAll := make([][]float64, switches+1) // ms; last = fleet-wide
	exactGuar := make([][]float64, switches+1)
	for i := 0; i < ops; i++ {
		// Log-uniform over 1µs..50ms, the span flow-mod latencies cover.
		lat := time.Duration(1e3 * math.Pow(5e4, rng.Float64()))
		guaranteed := rng.Intn(4) != 0
		k := rng.Intn(switches)
		teles[k].observe(ofwire.FlowModResult{Latency: lat, Guaranteed: guaranteed})
		ms := float64(lat) / 1e6
		for _, j := range []int{k, switches} {
			exactAll[j] = append(exactAll[j], ms)
			if guaranteed {
				exactGuar[j] = append(exactGuar[j], ms)
			}
		}
	}
	snap := &Snapshot{Switches: make([]SwitchSnapshot, switches)}
	for i := range teles {
		snap.Switches[i].ID = fmt.Sprintf("sw-%d", i)
		teles[i].snapshot(&snap.Switches[i])
	}
	snap.finalize()

	check := func(name string, got interface {
		Quantile(float64) float64
		Count() uint64
	}, samples []float64) {
		t.Helper()
		exact := stats.Summarize(samples)
		if got.Count() != uint64(exact.N()) {
			t.Errorf("%s holds %d samples, want %d", name, got.Count(), exact.N())
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			want, have := exact.Quantile(q), got.Quantile(q)/1e6
			if math.Abs(have-want) > want/32 {
				t.Errorf("%s q%.2f = %.6fms, exact %.6fms: off by more than 1/32", name, q, have, want)
			}
		}
	}
	var okOps uint64
	for i, sw := range snap.Switches {
		check(sw.ID+" all", sw.All, exactAll[i])
		check(sw.ID+" guaranteed", sw.Guaranteed, exactGuar[i])
		okOps += sw.OpsOK
	}
	check("fleet all", snap.All, exactAll[switches])
	check("fleet guaranteed", snap.Guaranteed, exactGuar[switches])
	if okOps != ops {
		t.Errorf("Σ OpsOK = %d, want %d", okOps, ops)
	}
}

// TestRouteMatchesFormattedKey: Route hashes "rule-<id>" from a stack buffer;
// it must land every rule where the formatted-string version did, for every
// fleet size, without allocating.
func TestRouteMatchesFormattedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ids := []classifier.RuleID{0, 1, 9, 10, math.MaxUint32, math.MaxUint64}
	for len(ids) < 10_000 {
		ids = append(ids, classifier.RuleID(rng.Uint64()>>uint(rng.Intn(64))))
	}
	for size := 1; size <= 8; size++ {
		f := &Fleet{}
		for i := 0; i < size; i++ {
			f.order = append(f.order, fmt.Sprintf("sw-%d", i))
		}
		for _, id := range ids {
			want := f.order[fnv64a(fmt.Sprintf("rule-%d", uint64(id)))%uint64(size)]
			if got := f.Route(id); got != want {
				t.Fatalf("size %d: Route(%d) = %s, formatted key gives %s", size, id, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { f.Route(math.MaxUint64) }); n != 0 {
			t.Fatalf("size %d: Route allocates %v per call, want 0", size, n)
		}
	}
}
