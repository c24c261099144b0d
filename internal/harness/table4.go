package harness

import (
	"fmt"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
)

// Table4Row is one (benchmark, client) row with all engines.
type Table4Row struct {
	Bench  string
	Client string
	Cells  map[string]ClientRun // engine name -> its cold run
}

// Speedup returns engine a's time divided by engine b's.
func (r Table4Row) Speedup(a, b string) float64 {
	return ratio(r.Cells[a].Time, r.Cells[b].Time)
}

// WorkRatio returns engine a's traversed edges divided by engine b's —
// the machine-independent speedup proxy.
func (r Table4Row) WorkRatio(a, b string) float64 {
	return ratio(r.Cells[a].Metrics.EdgesTraversed, r.Cells[b].Metrics.EdgesTraversed)
}

// RunTable4 measures the three engines on the three clients across the
// selected benchmarks: the reproduction of paper Table 4. Every engine is
// constructed fresh per (benchmark, client) run, and its cache (for
// DYNSUM, the summary cache; for REFINEPTS, the field-based memo) persists
// across the queries of that run, as in the paper.
func RunTable4(opts Options) []Table4Row {
	opts = opts.WithDefaults()
	var rows []Table4Row
	for _, p := range opts.profiles() {
		prog := benchgen.Generate(p, opts.Seed)
		for _, client := range clients.Names() {
			row := Table4Row{Bench: p.Name, Client: client, Cells: make(map[string]ClientRun)}
			for _, eng := range EngineNames {
				row.Cells[eng] = runClient(client, prog, newEngine(eng, prog.G, opts.config()))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// paperSpeedups are the average DYNSUM speedups over REFINEPTS the paper
// headlines per client.
var paperSpeedups = map[string]string{"SafeCast": "1.95x", "NullDeref": "2.28x", "FactoryM": "1.37x"}

// Table4 lays Table 4 out one row per (benchmark, client, engine) cell,
// each engine's speedup and work ratio taken against REFINEPTS, with the
// average DYNSUM speedups the paper headlines as footer lines.
func Table4(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	rows := RunTable4(opts)
	t := Table{
		Title: []string{fmt.Sprintf("Table 4: analysis times (scale %.3f, budget %d)", opts.Scale, opts.Budget)},
		Header: []string{"benchmark", "client", "engine", "time(ms)", "edges", "queries",
			"proven", "violations", "unknown", "speedup-vs-REFINEPTS", "work-ratio-vs-REFINEPTS"},
	}
	for _, r := range rows {
		for _, eng := range EngineNames {
			c := r.Cells[eng]
			t.addf("%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f",
				r.Bench, r.Client, eng, ms(c.Time), c.Metrics.EdgesTraversed,
				c.Report.Queries, c.Report.Proven, c.Report.Violations, c.Report.Unknown,
				r.Speedup("REFINEPTS", eng), r.WorkRatio("REFINEPTS", eng))
		}
	}
	for _, client := range clients.Names() {
		timeAvg, workAvg := averages(rows, client)
		t.Footer = append(t.Footer, fmt.Sprintf(
			"average DYNSUM speedup over REFINEPTS on %s: %.2fx (time), %.2fx (edges traversed); paper: %s",
			client, timeAvg, workAvg, paperSpeedups[client]))
	}
	return t, nil
}

// averages returns the arithmetic means of client's per-benchmark DYNSUM
// speedups, as the paper reports ("average speedups").
func averages(rows []Table4Row, client string) (timeAvg, workAvg float64) {
	n := 0
	for _, r := range rows {
		st := r.Speedup("REFINEPTS", "DYNSUM")
		sw := r.WorkRatio("REFINEPTS", "DYNSUM")
		if r.Client == client && st > 0 && sw > 0 {
			timeAvg += st
			workAvg += sw
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return timeAvg / float64(n), workAvg / float64(n)
}
