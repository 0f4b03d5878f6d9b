package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSARIFOutput keeps the code-scanning upload format stable: version
// pinned, driver named, every result an error, and paths repo-relative
// with forward slashes.
func TestSARIFOutput(t *testing.T) {
	var buf bytes.Buffer
	findings := []Finding{
		{Analyzer: "lockcheck", File: "/repo/internal/fleet/worker.go", Line: 10, Col: 2, Message: "held"},
		{Analyzer: "hotpathalloc", File: "/elsewhere/x.go", Line: 3, Col: 1, Message: "allocates"},
	}
	if err := WriteSARIF(&buf, Analyzers(), findings, "/repo"); err != nil {
		t.Fatal(err)
	}

	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "hermes-vet" {
		t.Errorf("driver name = %q, want hermes-vet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(Analyzers()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(Analyzers()))
	}
	for i := 1; i < len(run.Tool.Driver.Rules); i++ {
		if run.Tool.Driver.Rules[i-1].ID >= run.Tool.Driver.Rules[i].ID {
			t.Errorf("rules out of order: %q before %q", run.Tool.Driver.Rules[i-1].ID, run.Tool.Driver.Rules[i].ID)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	if got := run.Results[0]; got.Level != "error" ||
		got.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/fleet/worker.go" {
		t.Errorf("first result level/uri = %q/%q, want error/internal/fleet/worker.go",
			got.Level, got.Locations[0].PhysicalLocation.ArtifactLocation.URI)
	}
	if got := run.Results[1]; got.Level != "error" ||
		!strings.HasPrefix(got.Locations[0].PhysicalLocation.ArtifactLocation.URI, "/elsewhere/") {
		t.Errorf("out-of-root path must pass through; got %q", got.Locations[0].PhysicalLocation.ArtifactLocation.URI)
	}
	if reg := run.Results[0].Locations[0].PhysicalLocation.Region; reg.StartLine != 10 || reg.StartColumn != 2 {
		t.Errorf("region = %+v, want 10:2", reg)
	}
}
