package tokenbucket

import (
	"testing"
	"time"
)

func TestStartsFull(t *testing.T) {
	b := New(100, 10)
	if got := b.Tokens(0); got != 10 {
		t.Errorf("initial tokens = %v, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if !b.Allow(0, 1) {
			t.Fatalf("burst consume %d failed", i)
		}
	}
	if b.Allow(0, 1) {
		t.Error("11th token at t=0 must be denied")
	}
}

func TestRefill(t *testing.T) {
	b := New(100, 10) // 100 tokens/s
	for i := 0; i < 10; i++ {
		b.Allow(0, 1)
	}
	// After 50ms, 5 tokens accrued.
	if got := b.Tokens(50 * time.Millisecond); got < 4.999 || got > 5.001 {
		t.Errorf("tokens after 50ms = %v, want 5", got)
	}
	if !b.Allow(50*time.Millisecond, 5) {
		t.Error("5 tokens must be available after 50ms")
	}
	if b.Allow(50*time.Millisecond, 1) {
		t.Error("bucket must be empty again")
	}
}

func TestCapAtBurst(t *testing.T) {
	b := New(1000, 10)
	if got := b.Tokens(time.Hour); got != 10 {
		t.Errorf("tokens after 1h = %v, want burst cap 10", got)
	}
}

func TestClockNeverRunsBackward(t *testing.T) {
	b := New(100, 10)
	b.Allow(time.Second, 10)
	// An earlier timestamp must not refill or error.
	if got := b.Tokens(500 * time.Millisecond); got != 0 {
		t.Errorf("tokens at earlier time = %v, want 0", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	assertPanics("zero rate", func() { New(0, 1) })
	assertPanics("negative burst", func() { New(1, -1) })
}

func TestRateEnforcedOverTime(t *testing.T) {
	// Consuming 1 token per request at 1000 req/s against a 100/s bucket
	// must admit roughly 100/s plus the initial burst.
	b := New(100, 20)
	admitted := 0
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * time.Millisecond // 1 req/ms for 1s
		if b.Allow(now, 1) {
			admitted++
		}
	}
	// Expect ~ burst (20) + rate (100) * 1s = 120, with small edge effects.
	if admitted < 115 || admitted > 125 {
		t.Errorf("admitted = %d, want ≈120", admitted)
	}
}
