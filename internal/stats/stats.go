// Package stats provides the small numerical and reporting utilities shared
// by the figure renderers and the benchmark harness: geometric and
// arithmetic means, and fixed-width table rendering for regenerating the
// paper's tables and figures as text.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs. It returns 0 for an empty slice
// and panics if any value is non-positive (normalized IPC is always > 0).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table renders fixed-width text tables in the style of the paper's tables,
// suitable for terminal output and for recording in EXPERIMENTS.md.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	aligned []bool // true = right-align column
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	t := &Table{Title: title, header: headers, aligned: make([]bool, len(headers))}
	for i := range t.aligned {
		t.aligned[i] = true
	}
	t.aligned[0] = false // first column (usually a name) left-aligns
	return t
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if t.aligned[i] {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
