// Package report renders experiment results as aligned text tables and
// ASCII bar charts (the paper's figures are per-month bar groups).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned table with a row label column.
type Table struct {
	Title    string
	RowLabel string
	Columns  []string
	rows     []row
}

type row struct {
	label string
	cells []string
}

// NewTable creates a table whose data columns are named cols.
func NewTable(title, rowLabel string, cols ...string) *Table {
	return &Table{Title: title, RowLabel: rowLabel, Columns: cols}
}

// AddRow appends a row of formatted cells; counts must match Columns.
func (t *Table) AddRow(label string, cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row %q has %d cells, table has %d columns",
			label, len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, row{label: label, cells: cells})
}

// AddFloats appends a row of float cells with the given precision.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = fmt.Sprintf("%.*f", prec, v)
	}
	t.AddRow(label, cells...)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.RowLabel)
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.rows {
			if len(r.cells[i]) > widths[i+1] {
				widths[i+1] = len(r.cells[i])
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprintf(w, "  %-*s", widths[0], cells[0])
		for i, c := range cells[1:] {
			fmt.Fprintf(w, "  %*s", widths[i+1], c)
		}
		fmt.Fprintln(w)
	}
	header := append([]string{t.RowLabel}, t.Columns...)
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(append([]string{r.label}, r.cells...))
	}
}

// BarChart renders grouped horizontal bars: one group per category (a
// month), one bar per series (a policy) — an ASCII rendition of the
// paper's figure panels.
type BarChart struct {
	Title  string
	Unit   string
	Series []string
	groups []barGroup
}

type barGroup struct {
	label string
	vals  []float64
}

// NewBarChart creates a chart with the given series (bar) names.
func NewBarChart(title, unit string, series ...string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Series: series}
}

// AddGroup appends one category with one value per series.
func (b *BarChart) AddGroup(label string, vals ...float64) {
	if len(vals) != len(b.Series) {
		panic(fmt.Sprintf("report: group %q has %d values, chart has %d series",
			label, len(vals), len(b.Series)))
	}
	b.groups = append(b.groups, barGroup{label: label, vals: vals})
}

// Write renders the chart with bars scaled to the maximum value.
func (b *BarChart) Write(w io.Writer) {
	const width = 50
	var maxV float64
	for _, g := range b.groups {
		for _, v := range g.vals {
			if v > maxV {
				maxV = v
			}
		}
	}
	if b.Title != "" {
		fmt.Fprintf(w, "%s (max = %.4g %s)\n", b.Title, maxV, b.Unit)
	}
	nameW := 0
	for _, s := range b.Series {
		if len(s) > nameW {
			nameW = len(s)
		}
	}
	for _, g := range b.groups {
		fmt.Fprintf(w, "  %s\n", g.label)
		for i, v := range g.vals {
			n := 0
			if maxV > 0 {
				n = int(math.Round(v / maxV * width))
			}
			fmt.Fprintf(w, "    %-*s |%s %.4g\n", nameW, b.Series[i], strings.Repeat("#", n), v)
		}
	}
}
