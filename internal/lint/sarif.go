package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// SARIF 2.1.0 output, the interchange format GitHub code scanning
// ingests. Only the slice of the spec the upload path requires is
// modeled; rules carry the analyzer docs so findings get hover text in
// the code-scanning UI. Paths are emitted repo-relative (forward
// slashes) so the same SARIF file is valid from any checkout location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders findings as a single-run SARIF 2.1.0 log. root is
// the directory file paths are made relative to (usually the repo root);
// paths outside it pass through unchanged. Rules are listed for every
// analyzer in the suite, findings or not, and both rules and results are
// emitted in deterministic order (analyzer name; findings keep their
// position sort from Run). Every finding fails the gate, so every result
// is level "error".
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding, root string) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(root, f.File)},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "hermes-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifURI converts an absolute finding path to a root-relative,
// slash-separated URI; paths that do not sit under root stay as given
// (slash-converted).
func sarifURI(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && rel != "" && !filepath.IsAbs(rel) &&
			rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
