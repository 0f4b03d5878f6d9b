package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummaryBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 2) {
		t.Errorf("Mean = %v", s.Mean())
	}
	if !almostEq(s.Min(), 1) || !almostEq(s.Max(), 3) {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Median(), 2) {
		t.Errorf("Median = %v", s.Median())
	}
	s.Add(4)
	if s.N() != 4 || !almostEq(s.Mean(), 2.5) {
		t.Errorf("after Add: N=%d Mean=%v", s.N(), s.Mean())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty summary must report zeros")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if !almostEq(s.Quantile(0.5), 5) {
		t.Errorf("Quantile(0.5) = %v", s.Quantile(0.5))
	}
	if !almostEq(s.Quantile(0), 0) || !almostEq(s.Quantile(1), 10) {
		t.Error("extreme quantiles")
	}
	if !almostEq(s.Quantile(-1), 0) || !almostEq(s.Quantile(2), 10) {
		t.Error("out-of-range quantiles must clamp")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		s := Summarize(vals)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return almostEq(s.Quantile(0), sorted[0]) && almostEq(s.Quantile(1), sorted[n-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4", "extra")
	out := tab.String()
	for _, want := range []string{"T\n", "a", "bb", "333", "extra"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Headers and separator present.
	if !strings.Contains(out, "---") {
		t.Error("missing separator")
	}
}

func TestRenderCDFs(t *testing.T) {
	out := RenderCDFs("fig", "ms", map[string][]float64{
		"hermes": {1, 2, 3},
		"pica8":  {10, 20, 30},
	})
	for _, want := range []string{"fig", "hermes", "pica8", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderCDFs missing %q:\n%s", want, out)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow("1", "two, with comma")
	tab.AddRow("3", "4")
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n1,\"two, with comma\"\n3,4\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
