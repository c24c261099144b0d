package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stubBench replaces the measurement loop with a single-iteration run so
// the emitter's plumbing is testable in milliseconds.
func stubBench(t *testing.T) {
	t.Helper()
	prev := benchRunner
	benchRunner = func(f func(*testing.B)) testing.BenchmarkResult {
		b := &testing.B{N: 1}
		f(b)
		return testing.BenchmarkResult{N: 1, T: 1}
	}
	t.Cleanup(func() { benchRunner = prev })
}

func TestRunBenchJSONRecords(t *testing.T) {
	stubBench(t)
	snap := RunBenchJSON(Options{Scale: 0.005, Seed: 1})
	want := map[string]bool{
		"warm-query/figure2":                         false,
		"table4/soot-c/NullDeref/DYNSUM":             false,
		"batch/soot-c/NullDeref/serial":              false,
		"batch/soot-c/NullDeref/workers4":            false,
		"condense/soot-c-cyclic/NullDeref/condensed": false,
		"condense/soot-c-cyclic/NullDeref/base":      false,
		"condense/bloat-cyclic/NullDeref/condensed":  false,
		"warm-query/bloat-cyclic/condensed":          false,
		"warm-query/bloat-cyclic/base":               false,
		"cold/soot-c/NullDeref":                      false,
		"cold/soot-c-diamond/NullDeref":              false,
		"cold/bloat-diamond/NullDeref":               false,
		"cold/xalan-diamond/NullDeref":               false,
	}
	for _, r := range snap.Records {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Name == "" || r.Scale == 0 {
			t.Errorf("malformed record %+v", r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("snapshot missing workload %q", name)
		}
	}
	// Work counters must be populated on the engine workloads.
	for _, r := range snap.Records {
		if r.Name == "table4/soot-c/NullDeref/DYNSUM" && (r.EdgesTraversed == 0 || r.SummariesCached == 0) {
			t.Errorf("table4 record lacks work counters: %+v", r)
		}
		if strings.HasPrefix(r.Name, "cold/") &&
			(r.EdgesTraversed == 0 || r.PPTAVisits == 0 || r.SummariesComputed == 0 || r.SummariesCached == 0) {
			t.Errorf("cold record lacks work counters: %+v", r)
		}
	}

	// The condensation pairs must show the condensed path traversing
	// strictly fewer edges than the base path on the same cyclic graph.
	edges := map[string]int64{}
	for _, r := range snap.Records {
		edges[r.Name] = r.EdgesTraversed
	}
	for _, bench := range []string{"soot-c-cyclic", "bloat-cyclic", "xalan-cyclic"} {
		on := edges["condense/"+bench+"/NullDeref/condensed"]
		off := edges["condense/"+bench+"/NullDeref/base"]
		if on == 0 || off == 0 {
			t.Errorf("%s: condensation records lack edge counters (on=%d off=%d)", bench, on, off)
			continue
		}
		if on >= off {
			t.Errorf("%s: condensed path traversed %d edges >= base %d", bench, on, off)
		}
	}
}

// TestCompareBenchFile: regressions beyond tolerance warn; improvements
// and new workloads do not.
func TestCompareBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	file := BenchFile{
		Schema: 1,
		Baseline: &BenchSnapshot{Records: []BenchRecord{
			{Name: "a", NsPerOp: 100, EdgesTraversed: 1000},
			{Name: "b", NsPerOp: 100, EdgesTraversed: 1000},
			{Name: "c", NsPerOp: 100, EdgesTraversed: 1000},
			{Name: "d", NsPerOp: 100, PPTAVisits: 1000},
			{Name: "e", NsPerOp: 100, SummariesComputed: 10, SummariesCached: 10, InvalidatedSummaries: 10, BlendedSummaries: 10},
		}},
		Current: BenchSnapshot{Records: []BenchRecord{
			{Name: "a", NsPerOp: 300, EdgesTraversed: 1000}, // ns regression
			{Name: "b", NsPerOp: 100, EdgesTraversed: 5000}, // edges regression
			{Name: "c", NsPerOp: 50, EdgesTraversed: 500},   // improvement
			{Name: "d", NsPerOp: 100, PPTAVisits: 4000},     // ppta regression
			{Name: "e", NsPerOp: 100, SummariesComputed: 20, SummariesCached: 20, InvalidatedSummaries: 20, BlendedSummaries: 20},
			{Name: "new", NsPerOp: 9999, EdgesTraversed: 99}, // no baseline
		}},
	}
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	warnings, err := CompareBenchFile(&buf, path, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if warnings != 7 {
		t.Errorf("warnings = %d, want 7\n%s", warnings, buf.String())
	}
	for _, want := range []string{"WARNING a:", "WARNING b:", "WARNING d: ppta_visits",
		"WARNING e: summaries_computed 10 -> 20", "WARNING e: summaries_cached", "WARNING e: invalidated_summaries",
		"WARNING e: blended_summaries"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing expected warning %q:\n%s", want, buf.String())
		}
	}

	// A baseline-less file compares cleanly.
	file.Baseline = nil
	out, _ = json.MarshalIndent(&file, "", "  ")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if warnings, err := CompareBenchFile(&buf, path, 0.2); err != nil || warnings != 0 {
		t.Errorf("baseline-less compare: warnings=%d err=%v", warnings, err)
	}
}

// TestWriteBenchJSONFileKeepsBaseline: re-running the emitter against an
// existing file must keep the original baseline (and promote a
// baseline-less current snapshot to baseline).
func TestWriteBenchJSONFileKeepsBaseline(t *testing.T) {
	stubBench(t)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	opts := Options{Scale: 0.005, Seed: 1}

	// First run: no baseline.
	if err := WriteBenchJSONFile(path, opts); err != nil {
		t.Fatal(err)
	}
	var first BenchFile
	mustRead(t, path, &first)
	if first.Baseline != nil {
		t.Error("first snapshot should have no baseline")
	}
	if len(first.Current.Records) == 0 {
		t.Fatal("first snapshot empty")
	}

	// Second run: previous current becomes the baseline.
	if err := WriteBenchJSONFile(path, opts); err != nil {
		t.Fatal(err)
	}
	var second BenchFile
	mustRead(t, path, &second)
	if second.Baseline == nil || len(second.Baseline.Records) != len(first.Current.Records) {
		t.Fatal("previous current was not promoted to baseline")
	}

	// Third run: the original baseline is preserved, not rolled.
	second.Baseline.Tool = "sentinel"
	out, _ := json.MarshalIndent(&second, "", "  ")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSONFile(path, opts); err != nil {
		t.Fatal(err)
	}
	var third BenchFile
	mustRead(t, path, &third)
	if third.Baseline == nil || third.Baseline.Tool != "sentinel" {
		t.Error("existing baseline was not preserved")
	}
}

// TestWriteBenchJSONFileRefusesMalformed: a snapshot file that does not
// parse is reported and left as it is, not overwritten with a fresh
// baseline-less snapshot.
func TestWriteBenchJSONFileRefusesMalformed(t *testing.T) {
	stubBench(t)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	const malformed = `{"schema": 1, "baseline": {"records": [`
	if err := os.WriteFile(path, []byte(malformed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchJSONFile(path, Options{Scale: 0.005, Seed: 1}); err == nil {
		t.Error("malformed snapshot file accepted")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != malformed {
		t.Errorf("malformed snapshot file changed: %q, %v", data, err)
	}
}

func mustRead(t *testing.T, path string, into *BenchFile) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatal(err)
	}
}
