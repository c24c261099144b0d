package harness

import (
	"fmt"
	"time"

	"dynsum/internal/clients"
	"dynsum/internal/core"
)

// This file measures the concurrent batch-query engine: the wall-clock
// speedup of DynSum.BatchPointsToCtx over the serial query loop on the same
// workload. It is the experiment the paper's Figure 4 hints at but cannot
// run — the original DYNSUM is single-threaded; here the summary cache is
// shared across a worker pool, so the batch-amortisation effect compounds
// with hardware parallelism.

// ParallelPoint is one worker count's measurement.
type ParallelPoint struct {
	Workers int
	Elapsed time.Duration
	Speedup float64 // serial elapsed / parallel elapsed
}

// ParallelSeries is the speedup sweep for one benchmark and client. All
// engines start cold, so every point pays the same summary-computation
// bill; only the concurrency differs.
type ParallelSeries struct {
	Bench   string
	Client  string
	Queries int
	Serial  time.Duration
	Points  []ParallelPoint
}

// ParallelWorkerCounts is the sweep the Parallel table runs.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// RunParallelSpeedup times a cold serial query loop against cold
// BatchPointsToCtx runs at each worker count, on the client's site queries
// for one Table 3 benchmark.
func RunParallelSpeedup(opts Options, bench, client string, workerCounts []int) ParallelSeries {
	opts = opts.WithDefaults()
	prog := opts.program(bench)
	queries, err := clients.Queries(client, prog)
	if err != nil {
		panic(err) // client names are internal constants
	}

	serialEngine := core.NewDynSum(prog.G, opts.config(), nil)
	start := time.Now()
	for _, q := range queries {
		// Conservative failures count like any other answer: both paths
		// see the identical query stream.
		serialEngine.Query(nil, core.NewPointsToSet(), q.Var, q.Ctx) //nolint:errcheck
	}
	serial := time.Since(start)

	series := ParallelSeries{Bench: bench, Client: client, Queries: len(queries), Serial: serial}
	for _, w := range workerCounts {
		d := core.NewDynSum(prog.G, opts.config(), nil)
		start := time.Now()
		d.BatchPointsToCtx(nil, queries, w)
		elapsed := time.Since(start)
		series.Points = append(series.Points, ParallelPoint{Workers: w, Elapsed: elapsed, Speedup: ratio(serial, elapsed)})
	}
	return series
}

// Parallel tabulates the speedup sweep for the Figure 4 benchmarks and
// all three clients.
func Parallel(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title:  []string{fmt.Sprintf("Parallel batch speedup: BatchPointsTo vs serial loop (scale %.3f, cold caches)", opts.Scale)},
		Header: []string{"client", "benchmark", "queries", "serial(ms)"},
	}
	for _, n := range ParallelWorkerCounts {
		t.Header = append(t.Header, fmt.Sprintf("w%d(ms)", n), fmt.Sprintf("w%d-speedup", n))
	}
	for _, client := range clients.Names() {
		for _, b := range opts.figureBenchmarks() {
			s := RunParallelSpeedup(opts, b, client, ParallelWorkerCounts)
			row := []string{client, s.Bench, fmt.Sprint(s.Queries), ms(s.Serial)}
			for _, pt := range s.Points {
				row = append(row, ms(pt.Elapsed), fmt.Sprintf("%.2f", pt.Speedup))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
