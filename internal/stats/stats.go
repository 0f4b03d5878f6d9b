// Package stats provides the small statistical toolkit used throughout the
// Hermes reproduction: quantiles, running summaries and plain-text table
// rendering for the benchmark harness.
//
// All functions operate on float64 samples. Durations are converted to
// milliseconds at the call sites so that printed tables match the units used
// in the paper's figures.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary holds the order statistics of a sample set. The zero value is
// empty; add samples with Add or build one from a slice with Summarize.
type Summary struct {
	values []float64
	sorted bool
	sum    float64
}

// Summarize builds a Summary from the given samples. The input slice is
// copied, so the caller may reuse it.
func Summarize(samples []float64) *Summary {
	s := &Summary{values: append([]float64(nil), samples...)}
	for _, v := range s.values {
		s.sum += v
	}
	return s
}

// Add appends one sample.
func (s *Summary) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// N reports the number of samples.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest sample, or 0 for an empty summary.
func (s *Summary) Min() float64 {
	s.ensureSorted()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[0]
}

// Max returns the largest sample, or 0 for an empty summary.
func (s *Summary) Max() float64 {
	s.ensureSorted()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. Quantile(0.5) is the median.
func (s *Summary) Quantile(q float64) float64 {
	s.ensureSorted()
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median is shorthand for Quantile(0.5).
func (s *Summary) Median() float64 { return s.Quantile(0.5) }

// P95 is shorthand for Quantile(0.95).
func (s *Summary) P95() float64 { return s.Quantile(0.95) }

// P99 is shorthand for Quantile(0.99).
func (s *Summary) P99() float64 { return s.Quantile(0.99) }

// Values returns the samples in ascending order. The returned slice is owned
// by the Summary and must not be modified.
func (s *Summary) Values() []float64 {
	s.ensureSorted()
	return s.values
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Table is a simple fixed-column text table used by the experiment harness
// to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells. Cells beyond the header count are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			s += fmt.Sprintf("%-*s", w, c)
			if i < len(cells)-1 {
				s += "  "
			}
		}
		return s + "\n"
	}
	if len(t.Headers) > 0 {
		out += line(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		for i := 0; i < total-2; i++ {
			out += "-"
		}
		out += "\n"
	}
	for _, row := range t.Rows {
		out += line(row)
	}
	return out
}

// WriteCSV emits the table as CSV (headers first when present); useful for
// feeding the benchmark harness's tables into plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Headers) > 0 {
		if err := cw.Write(t.Headers); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderCDFs renders several named CDFs side by side: for each of a fixed set
// of quantiles it prints each series' value. This is the textual analogue of
// the paper's CDF figures.
func RenderCDFs(title string, unit string, series map[string][]float64) string {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	tab := &Table{Title: title, Headers: append([]string{"quantile"}, names...)}
	quantiles := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}
	sums := make(map[string]*Summary, len(series))
	for n, v := range series {
		sums[n] = Summarize(v)
	}
	for _, q := range quantiles {
		row := []string{fmt.Sprintf("p%02.0f", q*100)}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.3f%s", sums[n].Quantile(q), unit))
		}
		tab.AddRow(row...)
	}
	return tab.String()
}
