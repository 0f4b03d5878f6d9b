package experiments

import (
	"strings"
	"testing"
)

// TestReconcileSeedsConvergeAndReplay: every seeded reconcile chaos run
// must end with zero desired-vs-observed diff on every switch at the
// final store generation, and the same seed must reproduce an identical
// verdict AND an identical trace digest.
func TestReconcileSeedsConvergeAndReplay(t *testing.T) {
	injected := 0
	for _, seed := range []int64{3, 19, 77} {
		a := runReconcileSeed(seed, 40)
		b := runReconcileSeed(seed, 40)
		if a != b {
			t.Fatalf("seed %d: verdict not reproducible:\n first %+v\nsecond %+v", seed, a, b)
		}
		if !a.Traced {
			t.Errorf("seed %d: a replica's tracer wrapped; its digest covers only a tail", seed)
		}
		if !a.Converged {
			t.Errorf("seed %d: did not converge (final diff %d, gen %d)", seed, a.FinalDiff, a.Generation)
		}
		if a.FinalDiff != 0 {
			t.Errorf("seed %d: %d residual ops after final sweep", seed, a.FinalDiff)
		}
		if a.Converges == 0 || a.Requeues == 0 {
			t.Errorf("seed %d: reconcile loop barely exercised (%d converges, %d requeues)",
				seed, a.Converges, a.Requeues)
		}
		if a.Takeovers < 4 { // A takes 3 shards, B takes at least one over
			t.Errorf("seed %d: lease failover never happened (%d transfers)", seed, a.Takeovers)
		}
		injected += a.Crashes + a.Truncations + a.Resets + a.Partitions
	}
	if injected == 0 {
		t.Fatal("no faults injected across any seed; the harness exercised nothing")
	}
	if x, y := runReconcileSeed(3, 40), runReconcileSeed(4, 40); x.DigestA == y.DigestA && x.DigestB == y.DigestB {
		t.Error("different seeds produced identical trace digests; schedules are not seed-dependent")
	}
}

// TestReconcileRegistered: the harness is a first-class experiment —
// runnable by ID through the registry (and therefore from
// cmd/hermes-bench and make chaos) — and its rendered 40-seed verdict
// must be clean.
func TestReconcileRegistered(t *testing.T) {
	res, err := Run("reconcile", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "verdict:") {
		t.Fatalf("no verdict note in output:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") || strings.Contains(out, "FAILED") {
		t.Fatalf("reconcile verdict not clean:\n%s", out)
	}
}
