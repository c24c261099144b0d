package harness

import (
	"fmt"
	"io"
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

// ParallelWorkerCounts is the default sweep used by WriteParallel.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// RunParallelSpeedup times a cold serial query loop against cold
// BatchPointsToCtx runs at each worker count, on the client's site queries
// for one Table 3 benchmark.
func RunParallelSpeedup(opts Options, bench, client string, workerCounts []int) ParallelSeries {
	opts = opts.WithDefaults()
	p, ok := profileScaled(opts, bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	prog := opts.generate(p)
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
		speedup := 0.0
		if elapsed > 0 {
			speedup = float64(serial) / float64(elapsed)
		}
		series.Points = append(series.Points, ParallelPoint{Workers: w, Elapsed: elapsed, Speedup: speedup})
	}
	return series
}

// WriteParallel renders the speedup sweep for the Figure 4 benchmarks and
// all three clients.
func WriteParallel(w io.Writer, opts Options) {
	opts = opts.WithDefaults()
	fmt.Fprintf(w, "Parallel batch speedup: BatchPointsTo vs serial loop (scale %.3f, cold caches)\n", opts.Scale)
	for _, client := range clients.Names() {
		fmt.Fprintf(w, "\n[%s]\n", client)
		tw := newTabWriter(w)
		fmt.Fprint(tw, "bench\tqueries\tserial")
		for _, n := range ParallelWorkerCounts {
			fmt.Fprintf(tw, "\tw%d\tspeedup", n)
		}
		fmt.Fprintln(tw)
		for _, b := range Figure4Benchmarks {
			if _, ok := profileScaled(opts, b); !ok {
				continue
			}
			s := RunParallelSpeedup(opts, b, client, ParallelWorkerCounts)
			fmt.Fprintf(tw, "%s\t%d\t%s", s.Bench, s.Queries, fmtDuration(s.Serial))
			for _, pt := range s.Points {
				fmt.Fprintf(tw, "\t%s\t%.2fx", fmtDuration(pt.Elapsed), pt.Speedup)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}
