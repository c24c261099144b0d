package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs every workload, traced, against a real dynsumd binary on
// small programs, twice with the same seed. It checks that every metric
// BENCHMARK.json names is printed with its unit, that the JSON line
// carries exactly its four keys and the per-layer metrics, that every
// answer is right, and that the exact counts repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dynsumd and serves three workloads; skipped in -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	named := append(spec.EndToEnd, spec.PerLayer...)
	var layerNames []string
	for _, m := range spec.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	slices.Sort(layerNames)

	cfg := config{root: "..", work: t.TempDir(), seed: 7, trace: true, scale: 0.02, requests: 300}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				res, err := run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
				var out bytes.Buffer
				printResult(&out, res, true)
				printed := out.String()
				units := map[string]string{} // metric -> unit, from "workload metric value unit" lines
				for _, l := range strings.Split(printed, "\n") {
					if f := strings.Fields(l); len(f) == 4 && f[0] == w.name {
						units[f[1]] = f[3]
					}
				}
				for _, m := range named {
					if got, ok := units[m.Name]; !ok || got != m.Unit {
						t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
					}
				}
				checkJSONLine(t, printed, layerNames)
				if !res.Correct || res.Metrics["wrong_answers"].Value != 0 {
					t.Errorf("wrong answers: %v", res.Metrics["wrong_answers"].Value)
				}
				if res.Failed != 0 {
					t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
			}
			for _, def := range metricDefs {
				if a, b := runs[0].Metrics[def.name], runs[1].Metrics[def.name]; def.exact && a != b {
					t.Errorf("exact count %s differs between same-seed runs: %v vs %v", def.name, a.Value, b.Value)
				}
			}
		})
	}
}

// checkJSONLine requires the last line to hold exactly the four result
// keys, with the per-layer metrics of a traced run.
func checkJSONLine(t *testing.T, printed string, layerNames []string) {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(printed))
	for sc.Scan() {
		last = sc.Text()
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line is not JSON: %v: %s", err, last)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("JSON line keys %v, want %v", keys, want)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	if !slices.Equal(names, layerNames) {
		t.Errorf("JSON line metrics %v, want the per-layer set %v", names, layerNames)
	}
}
