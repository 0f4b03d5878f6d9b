package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectation is one (file, line, analyzer) triple, either expected from a
// "// want:<analyzer>" corpus marker or produced by a run.
type expectation struct {
	file     string
	line     int
	analyzer string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d [%s]", e.file, e.line, e.analyzer)
}

// wantMarkers scans the corpus for "// want:a" or "// want:a,b" markers.
func wantMarkers(t *testing.T, root string) []expectation {
	t.Helper()
	var out []expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "want:")
			if i < 0 {
				continue
			}
			names := strings.Fields(text[i+len("want:"):])
			if len(names) == 0 {
				continue
			}
			for _, name := range strings.Split(names[0], ",") {
				out = append(out, expectation{file: path, line: line, analyzer: name})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning corpus markers: %v", err)
	}
	return out
}

// TestCorpus asserts that on the known-bad corpus every analyzer fires
// exactly where a marker says it should: no missed findings, no false
// positives on the good snippets, and //lint:ignore suppression honored.
func TestCorpus(t *testing.T) {
	const root = "testdata/src"
	pkgs, fset, err := Load([]string{root + "/..."})
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("corpus loaded zero packages")
	}

	findings := Run(Analyzers(), pkgs, fset)
	var got []expectation
	for _, f := range findings {
		got = append(got, expectation{file: f.File, line: f.Line, analyzer: f.Analyzer})
	}
	want := wantMarkers(t, root)

	sortExp := func(es []expectation) {
		sort.Slice(es, func(i, j int) bool { return es[i].String() < es[j].String() })
	}
	sortExp(got)
	sortExp(want)

	missed := diff(want, got)
	extra := diff(got, want)
	for _, e := range missed {
		t.Errorf("analyzer did not fire: want finding at %s", e)
	}
	for _, e := range extra {
		t.Errorf("unexpected finding (false positive or broken suppression): %s", e)
	}
	if len(want) == 0 {
		t.Fatal("corpus has no want markers; the self-test is vacuous")
	}
}

// TestEveryAnalyzerCovered guards the corpus itself: each analyzer in the
// suite must have at least one marker, so a new analyzer cannot ship
// without known-bad material.
func TestEveryAnalyzerCovered(t *testing.T) {
	want := wantMarkers(t, "testdata/src")
	byAnalyzer := make(map[string]int)
	for _, e := range want {
		byAnalyzer[e.analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s has no corpus markers", a.Name)
		}
	}
}

// diff returns the elements of a not present in b (both sorted).
func diff(a, b []expectation) []expectation {
	seen := make(map[expectation]bool, len(b))
	for _, e := range b {
		seen[e] = true
	}
	var out []expectation
	for _, e := range a {
		if !seen[e] {
			out = append(out, e)
		}
	}
	return out
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verb
		ok     bool
	}{
		{"plain", nil, true},
		{"%v", []verb{{'v', 0}}, true},
		{"a %s b %w c %d", []verb{{'s', 0}, {'w', 1}, {'d', 2}}, true},
		{"100%% done %v", []verb{{'v', 0}}, true},
		{"%+v %#v %10s %.2f", []verb{{'v', 0}, {'v', 1}, {'s', 2}, {'f', 3}}, true},
		{"%[1]v", nil, false},
		{"%*d", nil, false},
	}
	for _, c := range cases {
		got, ok := parseVerbs(c.format)
		if ok != c.ok {
			t.Errorf("parseVerbs(%q) ok = %v, want %v", c.format, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}
