package harness

import (
	"encoding/csv"
	"slices"
	"strings"
	"testing"
)

// renderCSV runs e, renders its table as CSV and parses it back.
func renderCSV(t *testing.T, e Experiment, opts Options) (Table, [][]string) {
	t.Helper()
	tab, err := e(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if !slices.Equal(recs[0], tab.Header) {
		t.Errorf("CSV header %v, table header %v", recs[0], tab.Header)
	}
	return tab, recs
}

func TestTable3CSV(t *testing.T) {
	_, recs := renderCSV(t, Table3, testOpts)
	if len(recs) != 4 { // header + 3 benches
		t.Fatalf("records = %d, want 4", len(recs))
	}
	if recs[0][0] != "Benchmark" || recs[1][0] != "soot-c" {
		t.Errorf("bad header/first row: %v / %v", recs[0], recs[1])
	}
}

func TestTable4CSV(t *testing.T) {
	tab, recs := renderCSV(t, Table4, testOpts)
	if len(recs) != 1+3*3*3 { // header + benches x clients x engines
		t.Fatalf("records = %d, want 28", len(recs))
	}
	if len(tab.Footer) != 3 {
		t.Errorf("footer = %q, want one average line per client", tab.Footer)
	}
}

func TestFigureCSVs(t *testing.T) {
	_, f4 := renderCSV(t, Figure4, testOpts)
	if len(f4) < 10 {
		t.Errorf("figure4 records = %d, want >= 10", len(f4))
	}
	_, f5 := renderCSV(t, Figure5, testOpts)
	if len(f5) < 10 {
		t.Errorf("figure5 records = %d, want >= 10", len(f5))
	}
	for _, rec := range f5[1:] {
		if rec[4] == "0" {
			t.Errorf("stasum_total is zero in %v", rec)
		}
	}
}
