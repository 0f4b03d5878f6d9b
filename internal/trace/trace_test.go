package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hermes/internal/topo"
	"hermes/internal/workload"
)

func TestRuleStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := workload.MicroBench(rng, workload.MicroBenchConfig{
		Rules: 200, RatePerSec: 500, OverlapFrac: 0.5, MaxPriority: 64,
	})
	var buf bytes.Buffer
	if err := SaveRuleStream(&buf, stream); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRuleStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stream) {
		t.Fatalf("len = %d, want %d", len(got), len(stream))
	}
	for i := range stream {
		if got[i].At != stream[i].At || got[i].Rule != stream[i].Rule {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], stream[i])
		}
	}
}

func TestJobsRoundTrip(t *testing.T) {
	jobs := []workload.Job{
		{ID: 0, Arrival: time.Second, Flows: []workload.FlowSpec{
			{Src: topo.NodeID(3), Dst: topo.NodeID(7), Bytes: 1e6},
			{Src: topo.NodeID(4), Dst: topo.NodeID(8), Bytes: 2e6, StartDelay: time.Millisecond},
		}},
		{ID: 1, Arrival: 2 * time.Second, Flows: []workload.FlowSpec{
			{Src: topo.NodeID(1), Dst: topo.NodeID(2), Bytes: 5e9},
		}},
	}
	var buf bytes.Buffer
	if err := SaveJobs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range jobs {
		if got[i].ID != jobs[i].ID || got[i].Arrival != jobs[i].Arrival {
			t.Fatalf("job %d header mismatch", i)
		}
		for k := range jobs[i].Flows {
			if got[i].Flows[k] != jobs[i].Flows[k] {
				t.Fatalf("job %d flow %d mismatch", i, k)
			}
		}
	}
}

func TestKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveJobs(&buf, []workload.Job{{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRuleStream(&buf); err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("kind mismatch not detected: %v", err)
	}
}

func TestCorruptInputs(t *testing.T) {
	cases := []string{
		"",          // empty
		"{not json", // malformed
		`{"version":99,"kind":"jobs","payload":[]}`,                            // bad version
		`{"version":1,"kind":"rule-stream","payload":"x"}`,                     // payload type mismatch
		`{"version":1,"kind":"rule-stream","payload":[{"dst":"999.1.1.1/8"}]}`, // bad prefix
	}
	for i, c := range cases {
		if _, err := LoadRuleStream(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}
