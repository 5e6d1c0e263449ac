package report

import (
	"strings"
	"testing"
)

func TestTableWrite(t *testing.T) {
	tbl := NewTable("title", "month", "A", "B")
	tbl.AddRow("6/03", "1.0", "2.0")
	tbl.AddFloats("7/03", 2, 3.14159, 2.71828)
	var sb strings.Builder
	tbl.Write(&sb)
	out := sb.String()
	for _, want := range []string{"title", "month", "A", "B", "6/03", "3.14", "2.72"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("%d lines, want 5:\n%s", len(lines), out)
	}
	// Columns align: all data lines have equal length.
	if len(lines[1]) != len(lines[3]) || len(lines[1]) != len(lines[4]) {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tbl := NewTable("", "x", "A", "B")
	defer func() {
		if recover() == nil {
			t.Error("cell-count mismatch did not panic")
		}
	}()
	tbl.AddRow("r", "only one")
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("max wait", "h", "FCFS", "DDS")
	c.AddGroup("6/03", 50, 25)
	c.AddGroup("7/03", 100, 75)
	var sb strings.Builder
	c.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "max wait") || !strings.Contains(out, "6/03") {
		t.Errorf("chart output:\n%s", out)
	}
	// The 100-value bar must be the longest.
	longest, longestHashes := "", 0
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#")
		if n > longestHashes {
			longestHashes = n
			longest = line
		}
	}
	if !strings.Contains(longest, "100") {
		t.Errorf("longest bar is not the 100 value:\n%s", out)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("empty", "", "only")
	c.AddGroup("g", 0)
	var sb strings.Builder
	c.Write(&sb) // must not divide by zero
	if !strings.Contains(sb.String(), "0") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestBarChartGroupMismatchPanics(t *testing.T) {
	c := NewBarChart("", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("group size mismatch did not panic")
		}
	}()
	c.AddGroup("g", 1)
}
