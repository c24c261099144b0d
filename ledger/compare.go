package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// failedFracBound is the absolute rise in failed_frac -compare accepts.
const failedFracBound = 0.001

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareSets checks result set b (the change) against result set a (the
// parent), metric by metric with one row per workload, and reports
// whether nothing regressed and nothing was unresolved. A timing
// regresses when b's median is worse than a's by more than the
// BENCHMARK.json bound; it is unresolved when either side's quartile
// spread exceeds the bound (setup_s excepted), unless every run of b
// beats every run of a.
// failed_frac may rise by at most failedFracBound, wrong_answers must
// stay 0, and every exact count must be identical between runs of the
// same workload, seed and trace setting.
func compareSets(benchPath, aPath, bPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	values := func(set []result, wl, name string) []float64 {
		var out []float64
		for _, r := range set {
			if m, has := r.Metrics[name]; has && r.Workload == wl && r.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	row := func(wl string, va, vb []float64) (ma, mb float64) {
		a1, a3 := quartiles(va)
		b1, b3 := quartiles(vb)
		ma, mb = median(va), median(vb)
		fmt.Fprintf(w, "  %-14s a %s [%s %s] n=%-3d b %s [%s %s] n=%-3d", wl,
			formatValue(ma), formatValue(a1), formatValue(a3), len(va),
			formatValue(mb), formatValue(b1), formatValue(b3), len(vb))
		return ma, mb
	}

	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "%s (%s, %s is better, bound %.0f%%)\n", m.Name, m.Unit, m.Better, 100*m.Bound)
		for _, wl := range workloads {
			va, vb := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := row(wl.name, va, vb)
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (mb - ma) / ma
			spread := 0.0
			for _, vs := range [][]float64{va, vb} {
				q1, q3 := quartiles(vs)
				spread = math.Max(spread, (q3-q1)/median(vs))
			}
			allBetter := slices.Max(vb) < slices.Min(va)
			if m.Better == "higher" {
				allBetter = slices.Min(vb) > slices.Max(va)
			}
			verdict := "within bound"
			switch {
			case allBetter:
				verdict = "better on every run"
			// setup_s is judged by its median alone: its bound is there to
			// catch work moved into set-up, and five launches a run cannot
			// make it steady.
			case spread > m.Bound && m.Name != "setup_s":
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
				ok = false
			case worse > m.Bound:
				verdict = "regressed"
				ok = false
			}
			fmt.Fprintf(w, " worse by %+.1f%%  %s\n", 100*worse, verdict)
		}
	}

	fmt.Fprintf(w, "failed_frac (ratio, may rise by at most %g) and wrong_answers (must be 0)\n", failedFracBound)
	for _, wl := range workloads {
		va, vb := values(a, wl.name, "failed_frac"), values(b, wl.name, "failed_frac")
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		ma, mb := row(wl.name, va, vb)
		verdict := "within bound"
		if mb-ma > failedFracBound {
			verdict = "regressed"
			ok = false
		}
		for _, r := range b {
			if r.Workload == wl.name && (!r.Correct || r.Metrics["wrong_answers"].Value != 0) {
				verdict = "wrong answers"
				ok = false
			}
		}
		fmt.Fprintf(w, " %s\n", verdict)
	}

	fmt.Fprintln(w, "exact counts (identical for the same workload, seed and trace setting)")
	type runKey struct {
		workload string
		seed     int64
		trace    int
	}
	byKey := make(map[runKey]result)
	for _, r := range a {
		byKey[runKey{r.Workload, r.Seed, r.Trace}] = r
	}
	for _, wl := range workloads {
		pairs, diffs := 0, 0
		for _, rb := range b {
			ra, has := byKey[runKey{rb.Workload, rb.Seed, rb.Trace}]
			if rb.Workload != wl.name || !has {
				continue
			}
			pairs++
			for _, def := range metricDefs {
				if !def.exact {
					continue
				}
				ma, inA := ra.Metrics[def.name]
				mb, inB := rb.Metrics[def.name]
				if inA != inB || ma.Value != mb.Value {
					diffs++
					ok = false
					fmt.Fprintf(w, "  %-14s seed %d trace %d: %s differs: a %s, b %s\n", wl.name, rb.Seed, rb.Trace,
						def.name, formatValue(ma.Value), formatValue(mb.Value))
				}
			}
		}
		if pairs > 0 {
			fmt.Fprintf(w, "  %-14s %d same-seed pairs, %d differing counts\n", wl.name, pairs, diffs)
		}
	}
	if ok {
		fmt.Fprintln(w, "no metric regressed or unresolved")
	}
	return ok, nil
}
