package harness

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is one experiment's result as it is printed: title lines, a
// header, one row of cells per measurement and footer lines. Cells hold
// bare values, with units in the header, so the text and CSV forms carry
// the same numbers.
type Table struct {
	Title  []string
	Header []string
	Rows   [][]string
	Footer []string
}

// An Experiment computes one result table.
type Experiment func(Options) (Table, error)

// addf appends one row: format renders the row with cells separated by
// tabs. Cells the row leaves out at the end are empty.
func (t *Table) addf(format string, args ...any) {
	row := strings.Split(fmt.Sprintf(format, args...), "\t")
	for len(row) < len(t.Header) {
		row = append(row, "")
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders t as text: the title lines, the header and rows in
// aligned columns, then the footer lines. Title and footer lines hold no
// tabs, so they leave the column widths alone.
func (t Table) WriteText(w io.Writer) error {
	var b bytes.Buffer
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, l := range t.Title {
		fmt.Fprintln(tw, l)
	}
	for _, r := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	for _, l := range t.Footer {
		fmt.Fprintln(tw, l)
	}
	tw.Flush() // into a bytes.Buffer, which cannot fail
	_, err := w.Write(b.Bytes())
	return err
}

// WriteCSV renders t's header and rows as CSV; the title and footer lines
// are text-only.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// ms renders a duration as milliseconds with microsecond resolution.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// ratio returns a/b, or 0 when b is not positive.
func ratio[T int64 | time.Duration](a, b T) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
