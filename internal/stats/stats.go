// Package stats provides the summary statistics and text rendering the
// study reports: geometric means (the paper's aggregation of choice, after
// Fleming & Wallace), ratio deltas, and fixed-width result tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs. It returns 0 if xs is empty or
// any value is non-positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// PctDelta returns the percentage change from base to v: +2.0 means v is 2%
// above base.
func PctDelta(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v/base - 1) * 100
}

// Table renders fixed-width text tables for cmd output and EXPERIMENTS.md.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
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
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Bar renders a horizontal ASCII bar chart row for figure-style output.
func Bar(label string, value, maxValue float64, width int) string {
	if width <= 0 {
		width = 50
	}
	n := 0
	if maxValue > 0 {
		n = int(value / maxValue * float64(width))
	}
	if n > width {
		n = width
	}
	return fmt.Sprintf("%-8s |%-*s| %.3f", label, width, strings.Repeat("#", n), value)
}
