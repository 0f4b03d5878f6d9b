package obs

import (
	"testing"
	"time"
)

func TestTracerRingWindow(t *testing.T) {
	tr := NewTracer(16, 4)
	for i := 1; i <= 40; i++ {
		tr.Record(time.Duration(i)*time.Microsecond, EvAdmit, 0, uint64(i), 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("window = %d events, want 16", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(25 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Rule != wantSeq {
			t.Fatalf("event %d: rule = %d, want %d", i, e.Rule, wantSeq)
		}
	}
	if tr.Len() != 40 {
		t.Fatalf("Len = %d, want 40", tr.Len())
	}
}

func TestTracerPartialWindow(t *testing.T) {
	tr := NewTracer(64, 4)
	tr.Record(time.Millisecond, EvBypass, 0, 7, 0, 0)
	tr.Record(2*time.Millisecond, EvViolation, 0, 7, 0, 99)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("window = %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvBypass || evs[1].Kind != EvViolation {
		t.Fatalf("wrong kinds: %v %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[1].B != 99 {
		t.Fatalf("violation latency datum = %d, want 99", evs[1].B)
	}
}

func TestTracerCaptures(t *testing.T) {
	tr := NewTracer(16, 4)
	for i := 1; i <= 10; i++ {
		tr.Record(time.Duration(i), EvMainInsert, 0, uint64(i), 0, 0)
	}
	tr.CaptureNow(10, "violation rule=10")
	for i := 11; i <= 20; i++ {
		tr.Record(time.Duration(i), EvMainInsert, 0, uint64(i), 0, 0)
	}
	tr.CaptureNow(20, "reconcile repaired=3")

	caps, dropped := tr.Captures()
	if len(caps) != 2 || dropped != 0 {
		t.Fatalf("captures = %d (dropped %d), want 2 (0)", len(caps), dropped)
	}
	if caps[0].Reason != "violation rule=10" || caps[0].Seq != 10 {
		t.Fatalf("capture 0 = %+v", caps[0])
	}
	if len(caps[0].Events) != 10 {
		t.Fatalf("capture 0 holds %d events, want 10", len(caps[0].Events))
	}
	// First capture is immutable: later records must not leak into it.
	if last := caps[0].Events[len(caps[0].Events)-1]; last.Rule != 10 {
		t.Fatalf("capture 0 last rule = %d, want 10", last.Rule)
	}
	if len(caps[1].Events) != 16 {
		t.Fatalf("capture 1 holds %d events, want full 16-event window", len(caps[1].Events))
	}

	// Retention cap: oldest captures survive, extras count as dropped.
	for i := 0; i < 10; i++ {
		tr.CaptureNow(time.Duration(30+i), "overflow")
	}
	caps, dropped = tr.Captures()
	if len(caps) != 4 {
		t.Fatalf("retained %d captures, want cap of 4", len(caps))
	}
	if dropped != 8 {
		t.Fatalf("dropped = %d, want 8", dropped)
	}
	if caps[0].Reason != "violation rule=10" {
		t.Fatal("oldest capture was evicted; first-trigger retention violated")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(0, EvAdmit, 0, 1, 2, 3) // must not panic
	tr.CaptureNow(0, "x")
	if tr.Len() != 0 {
		t.Fatal("nil tracer Len != 0")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatal("nil tracer Events != nil")
	}
	if caps, dropped := tr.Captures(); caps != nil || dropped != 0 {
		t.Fatal("nil tracer Captures not empty")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvAdmit, EvBypass, EvDivertRate, EvDivertSize, EvDivertFull,
		EvRedundant, EvMainInsert, EvDelete, EvModify, EvViolation,
		EvMigStep, EvMigDone, EvMigAbort, EvMigInterrupt, EvReconcile, EvCrash,
		EvDirty, EvRequeue, EvConverge, EvLease, EvHalt,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

// TestTracerDigest: the digest is a function of the whole recorded
// sequence — equal sequences agree, a change to any one field of any one
// event or a swap of two events moves it — and a wrapped ring refuses to
// digest its partial window.
func TestTracerDigest(t *testing.T) {
	base := []Event{
		{At: 10, Kind: EvDirty, Rule: 1, A: 4, B: 1},
		{At: 20, Kind: EvMigStep, Step: 2, Rule: 7, A: 3, B: 900},
		{At: 30, Kind: EvRequeue, Rule: 1, A: 1, B: 5000},
		{At: 40, Kind: EvConverge, Rule: 1, A: 4, B: 2},
	}
	digest := func(evs []Event, ring int) (uint64, bool) {
		tr := NewTracer(ring, 4)
		for _, e := range evs {
			tr.Record(e.At, e.Kind, e.Step, e.Rule, e.A, e.B)
		}
		return tr.Digest()
	}
	want, ok := digest(base, 16)
	if !ok {
		t.Fatal("unwrapped ring refused to digest")
	}
	if again, ok := digest(base, 64); !ok || again != want {
		t.Fatalf("identical sequences digest %x,%v vs %x", again, ok, want)
	}
	edits := map[string]func(e *Event){
		"At":   func(e *Event) { e.At++ },
		"Kind": func(e *Event) { e.Kind = EvHalt },
		"Step": func(e *Event) { e.Step++ },
		"Rule": func(e *Event) { e.Rule++ },
		"A":    func(e *Event) { e.A++ },
		"B":    func(e *Event) { e.B++ },
	}
	for field, edit := range edits {
		for i := range base {
			evs := append([]Event(nil), base...)
			edit(&evs[i])
			if got, ok := digest(evs, 16); !ok || got == want {
				t.Errorf("changing %s of event %d left the digest at %x (ok=%v)", field, i, got, ok)
			}
		}
	}
	swapped := append([]Event(nil), base...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if got, _ := digest(swapped, 16); got == want {
		t.Error("swapping two events left the digest unchanged")
	}
	if got, _ := digest(base[:3], 16); got == want {
		t.Error("dropping the last event left the digest unchanged")
	}

	// A full ring still digests; one more event wraps it and the digest
	// is refused.
	tr := NewTracer(16, 4)
	for i := 0; i < 16; i++ {
		tr.Record(time.Duration(i), EvDirty, 0, 0, uint64(i), 0)
	}
	if _, ok := tr.Digest(); !ok {
		t.Fatal("a ring filled exactly to capacity refused to digest")
	}
	tr.Record(16, EvDirty, 0, 0, 16, 0)
	if sum, ok := tr.Digest(); ok || sum != 0 {
		t.Fatalf("wrapped ring digested: %x,%v", sum, ok)
	}
	var nilTr *Tracer
	if _, ok := nilTr.Digest(); ok {
		t.Fatal("nil tracer claims a digest")
	}
}
