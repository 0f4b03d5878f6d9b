package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite digests.txt from this run's results")

const (
	digestFile   = "digests.txt"
	digestHeader = `# FNV-1a digests of every registry experiment's rendered result at scale 0.1
# (the shape tests' testScale). A value that moves is a behaviour change:
# regenerate with
#   go test ./internal/experiments -run TestExperimentDigests -update
# and commit the new value in the same diff as the code that moved it.
# "excluded: <reason>" marks an experiment whose output is not a function
# of (code, scale) alone.
`
)

// readDigests parses digests.txt into id → value ("%016x" or "excluded: …").
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[id] = val
	}
	return out
}

// TestExperimentDigests is the paper-figure gate (ROADMAP item 3): every
// registry experiment must render exactly what digests.txt says it does.
func TestExperimentDigests(t *testing.T) {
	committed := readDigests(t)
	var file strings.Builder
	file.WriteString(digestHeader)
	for _, id := range IDs() {
		want, known := committed[id]
		delete(committed, id)
		got := want
		if !strings.HasPrefix(want, "excluded: ") {
			res, err := Run(id, testScale)
			if err != nil {
				t.Fatal(err)
			}
			got = fmt.Sprintf("%016x", Digest(res))
		}
		fmt.Fprintf(&file, "%s %s\n", id, got)
		switch {
		case *update:
		case !known:
			t.Errorf("%s has no entry in %s (run with -update)", id, digestFile)
		case got != want:
			t.Errorf("%s digest %s, committed %s: the rendered result moved; "+
				"if intended, rerun with -update and commit the new value", id, got, want)
		}
	}
	for id := range committed {
		if !*update {
			t.Errorf("%s names %q, which is not a registry experiment", digestFile, id)
		}
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
