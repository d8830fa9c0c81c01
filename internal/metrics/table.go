package metrics

import (
	"fmt"
	"strings"
)

// Table renders the experiment tables cmd/benchreport prints, as aligned
// plain text or markdown. Columns are sized to the widest cell.
type Table struct {
	title     string
	headers   []string
	rows      [][]string
	footnotes []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// AddFootnote appends a note rendered under the table (String and
// Markdown both show it, prefixed "*").
func (t *Table) AddFootnote(note string) {
	t.footnotes = append(t.footnotes, note)
}

// NoteTruncation adds a footnote for every summary whose percentiles
// were computed from a truncated sample buffer (Summary.Truncated), so
// tables built over long benches disclose which rows exclude the tail.
func (t *Table) NoteTruncation(summaries ...Summary) {
	for _, s := range summaries {
		if s.Truncated() {
			t.AddFootnote(fmt.Sprintf("%s: percentiles computed from the first %d of %d observations (MaxSamples buffer)",
				s.Name, s.Sampled, s.Count))
		}
	}
}

// String renders the table with a title line, a header row, a rule and the
// data rows.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, note := range t.footnotes {
		fmt.Fprintf(&b, "* %s\n", note)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, note := range t.footnotes {
		b.WriteString("\n\\* " + note + "\n")
	}
	return b.String()
}
