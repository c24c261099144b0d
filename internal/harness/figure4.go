package harness

import (
	"fmt"

	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/refine"
)

// Figure4Series is one benchmark's batch series for one client: the time
// DYNSUM takes per batch, normalised to REFINEPTS on the same batch
// (paper Figure 4). The DYNSUM engine persists across batches so its
// summary cache warms up; the normalised values therefore trend downwards.
type Figure4Series struct {
	Bench      string
	Client     string
	Normalized []float64 // per batch: timeDYNSUM / timeREFINEPTS
	WorkRatio  []float64 // per batch: edgesDYNSUM / edgesREFINEPTS
	DynEdges   []int64   // per batch: edges DYNSUM traversed
	RefEdges   []int64   // per batch: edges REFINEPTS traversed
}

// Figure4Benchmarks is the paper's selection: large code bases with many
// queries.
var Figure4Benchmarks = []string{"soot-c", "bloat", "jython"}

// RunFigure4 produces the batch series for one benchmark and client.
func RunFigure4(opts Options, bench, client string) Figure4Series {
	opts = opts.WithDefaults()
	prog := opts.program(bench)

	dyn := core.NewDynSum(prog.G, opts.config(), nil)
	ref := refine.NewRefinePts(prog.G, opts.config(), nil)

	series := Figure4Series{Bench: bench, Client: client}
	var prevDyn, prevRef int64
	for _, batch := range batches(prog, client, opts.Batches) {
		rRef := runClient(client, batch, ref)
		rDyn := runClient(client, batch, dyn)

		refEdges := rRef.Metrics.EdgesTraversed - prevRef
		dynEdges := rDyn.Metrics.EdgesTraversed - prevDyn
		prevRef, prevDyn = rRef.Metrics.EdgesTraversed, rDyn.Metrics.EdgesTraversed

		series.Normalized = append(series.Normalized, ratio(rDyn.Time, rRef.Time))
		series.WorkRatio = append(series.WorkRatio, ratio(dynEdges, refEdges))
		series.DynEdges = append(series.DynEdges, dynEdges)
		series.RefEdges = append(series.RefEdges, refEdges)
	}
	return series
}

// Figure4 lays the series for the paper's three benchmarks out one row
// per (client, benchmark, batch).
func Figure4(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title: []string{
			fmt.Sprintf("Figure 4: DYNSUM per-batch time normalised to REFINEPTS (scale %.3f, %d batches)",
				opts.Scale, opts.Batches),
			"(work columns are edge-traversal ratios: deterministic)",
		},
		Header: []string{"client", "benchmark", "batch", "time-ratio", "work-ratio", "dyn-edges", "ref-edges"},
	}
	for _, client := range clients.Names() {
		for _, bench := range opts.figureBenchmarks() {
			s := RunFigure4(opts, bench, client)
			for i := range s.Normalized {
				t.addf("%s\t%s\t%d\t%.2f\t%.2f\t%d\t%d", client, bench, i+1,
					s.Normalized[i], s.WorkRatio[i], s.DynEdges[i], s.RefEdges[i])
			}
		}
	}
	return t, nil
}
