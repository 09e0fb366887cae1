// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4). Each experiment builds the
// paper's workload, calibrates per-task compute costs by timing the real
// kernels in this repository, and projects node/core sweeps through the
// cluster performance model, printing the same rows/series the paper
// reports. EXPERIMENTS.md records the expected shapes.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated artifact: a figure's data series or a table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case fmt.Stringer:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(t.Header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatSeconds renders a duration in seconds with sensible precision
// for tables (3 significant figures).
func formatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.01:
		return fmt.Sprintf("%.2e", s)
	case s < 10:
		return fmt.Sprintf("%.3f", s)
	case s < 1000:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.0f", s)
	}
}

// formatRate renders tasks/second for tables.
func formatRate(r float64) string {
	switch {
	case r == 0:
		return "-"
	case r < 10:
		return fmt.Sprintf("%.2f", r)
	case r < 1000:
		return fmt.Sprintf("%.1f", r)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// formatBytes renders a byte count with binary units.
func formatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
