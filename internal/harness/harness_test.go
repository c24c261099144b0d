package harness

import (
	"strings"
	"testing"
)

var testOpts = Options{Scale: 0.01, Seed: 1, Benchmarks: []string{"soot-c", "bloat", "jython"}}

func TestTable1ReproducesReuse(t *testing.T) {
	res := RunTable1()
	if res.S1PointsTo == res.S2PointsTo {
		t.Errorf("s1 and s2 must resolve to different objects: %s vs %s",
			res.S1PointsTo, res.S2PointsTo)
	}
	if !strings.Contains(res.S1PointsTo, "o26") {
		t.Errorf("pts(s1) = %s, want o26", res.S1PointsTo)
	}
	if !strings.Contains(res.S2PointsTo, "o29") {
		t.Errorf("pts(s2) = %s, want o29", res.S2PointsTo)
	}
	// The Table 1 claims: the second query computes fewer new summaries
	// than the first and reuses cached ones.
	if res.S2Summaries >= res.S1Summaries {
		t.Errorf("s2 computed %d summaries, s1 %d; want fewer", res.S2Summaries, res.S1Summaries)
	}
	if res.S2Reused == 0 {
		t.Error("s2 reused no summaries")
	}
	out := renderText(t, Table1, testOpts)
	for _, want := range []string{"s1  ", "s2  ", "reuse", "points-to(s1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[3][0] != "DYNSUM" || rows[3][2] != "Dynamic (across queries)" {
		t.Errorf("DYNSUM row wrong: %v", rows[3])
	}
	if !strings.Contains(renderText(t, Table2, testOpts), "STASUM") {
		t.Error("Table 2 output missing STASUM")
	}
}

func TestTable3RowsAndLocality(t *testing.T) {
	rows := RunTable3(testOpts)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		got := r.Stats.Locality()
		if diff := got - r.PaperLocality; diff < -8 || diff > 8 {
			t.Errorf("%s: locality %.1f%%, paper %.1f%%", r.Bench, got, r.PaperLocality)
		}
		if r.QSafe == 0 || r.QNull == 0 || r.QFactory == 0 {
			t.Errorf("%s: zero query counts: %d/%d/%d", r.Bench, r.QSafe, r.QNull, r.QFactory)
		}
	}
	if !strings.Contains(renderText(t, Table3, testOpts), "soot-c") {
		t.Error("Table 3 output missing soot-c")
	}
}

// TestTable4Shape is the headline reproduction: DYNSUM must beat REFINEPTS
// on work (edges traversed) for every client, averaged over benchmarks.
func TestTable4Shape(t *testing.T) {
	rows := RunTable4(testOpts)
	if len(rows) != 9 { // 3 benches x 3 clients
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	perClient := map[string][]float64{}
	for _, r := range rows {
		for _, eng := range EngineNames {
			cell, ok := r.Cells[eng]
			if !ok {
				t.Fatalf("%s/%s: missing engine %s", r.Bench, r.Client, eng)
			}
			if cell.Report.Queries == 0 {
				t.Errorf("%s/%s/%s: no queries ran", r.Bench, r.Client, eng)
			}
		}
		perClient[r.Client] = append(perClient[r.Client], r.WorkRatio("REFINEPTS", "DYNSUM"))
	}
	for client, ratios := range perClient {
		avg := 0.0
		for _, x := range ratios {
			avg += x
		}
		avg /= float64(len(ratios))
		if avg <= 1.0 {
			t.Errorf("%s: average REFINEPTS/DYNSUM work ratio %.2f, want > 1 (DYNSUM should win)", client, avg)
		}
	}
}

// TestTable4VerdictsAgree: all three engines must report identical
// proven/violation counts (they differ in speed, never in answers).
func TestTable4VerdictsAgree(t *testing.T) {
	rows := RunTable4(testOpts)
	for _, r := range rows {
		base := r.Cells["DYNSUM"].Report
		for _, eng := range []string{"NOREFINE", "REFINEPTS"} {
			rep := r.Cells[eng].Report
			if rep.Proven != base.Proven || rep.Violations != base.Violations {
				t.Errorf("%s/%s: %s verdicts (%d/%d) differ from DYNSUM (%d/%d)",
					r.Bench, r.Client, eng, rep.Proven, rep.Violations, base.Proven, base.Violations)
			}
		}
	}
}

// TestFigure4Trend: with a warming cache, the later batches must be
// cheaper for DYNSUM relative to REFINEPTS than the first batch (on work).
func TestFigure4Trend(t *testing.T) {
	s := RunFigure4(testOpts, "soot-c", "NullDeref")
	if len(s.WorkRatio) < 3 {
		t.Fatalf("batches = %d, want >= 3", len(s.WorkRatio))
	}
	first := s.WorkRatio[0]
	last := s.WorkRatio[len(s.WorkRatio)-1]
	if last >= first {
		t.Errorf("work ratio did not fall: first %.3f, last %.3f (series %v)",
			first, last, s.WorkRatio)
	}
}

// TestFigure5Shape: DYNSUM's cumulative summary count must be monotone and
// end strictly below STASUM's offline total.
func TestFigure5Shape(t *testing.T) {
	s := RunFigure5(testOpts, "bloat", "SafeCast")
	if s.StaSumTotal == 0 {
		t.Fatal("STASUM computed no summaries")
	}
	for i := 1; i < len(s.DynCumulative); i++ {
		if s.DynCumulative[i] < s.DynCumulative[i-1] {
			t.Errorf("cumulative summaries not monotone: %v", s.DynCumulative)
		}
	}
	if fp := s.FinalPercent(); fp <= 0 || fp >= 100 {
		t.Errorf("final percent = %.1f, want in (0, 100)", fp)
	}
}

func TestWriteAllRender(t *testing.T) {
	out := renderText(t, Figure4, testOpts) + renderText(t, Figure5, testOpts) + renderText(t, Table4, testOpts)
	for _, want := range []string{"Figure 4", "Figure 5", "Table 4", "average DYNSUM speedup", "average final on NullDeref"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// renderText runs e and renders its table as text.
func renderText(t *testing.T, e Experiment, opts Options) string {
	t.Helper()
	tab, err := e(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
