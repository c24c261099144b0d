// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments -all                 # everything, default scale 0.02
//	experiments -table 4 -scale 0.05 # one table, bigger benchmarks
//	experiments -figure 5 -bench soot-c,bloat,jython
//
// Wall-clock numbers vary with the machine; each experiment also prints
// deterministic work counters (PAG edges traversed), which are the numbers
// EXPERIMENTS.md quotes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dynsum/internal/harness"
)

// main delegates to realMain so every error path returns through the
// deferred profile writers: os.Exit skips defers, which would leave a
// truncated (unparseable) CPU profile and no heap profile exactly on the
// runs one most wants to debug.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		table        = flag.Int("table", 0, "render one table (1-4)")
		figure       = flag.Int("figure", 0, "render one figure (4 or 5)")
		all          = flag.Bool("all", false, "render every table and figure")
		scale        = flag.Float64("scale", 0.02, "benchmark scale factor (1.0 = paper-sized)")
		seed         = flag.Int64("seed", 1, "generator seed")
		budget       = flag.Int("budget", 75000, "per-query traversal budget")
		batches      = flag.Int("batches", 10, "query batches for figures 4 and 5")
		benchCSV     = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		asCSV        = flag.Bool("csv", false, "emit CSV instead of text (a selection of one table only)")
		ablations    = flag.Bool("ablations", false, "run the cache, locality, k-limit and condensation/memoisation ablations")
		parallel     = flag.Bool("parallel", false, "run the batch-query parallel-speedup sweep")
		evolve       = flag.Bool("evolve", false, "run the dynamic-evolution experiment (delta overlay vs rebuild-from-scratch)")
		openWorld    = flag.Bool("openworld", false, "run the open-world evaluation (blended summaries and specs vs the full-body oracle)")
		benchJSON    = flag.String("bench-json", "", "measure the benchmark-trajectory workloads and write the snapshot to this JSON file (an existing baseline section in the file is preserved)")
		benchCompare = flag.String("bench-compare", "", "compare a snapshot file's current section against its baseline and warn on regressions")
		tolerance    = flag.Float64("tolerance", 0.2, "regression tolerance ratio for -bench-compare (0.2 = 20%)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	// Profiling hooks so perf PRs can attach flame graphs: the CPU profile
	// covers everything the invocation runs; the heap profile is snapshot
	// at exit (with a GC first, so live-object numbers are accurate). Both
	// flush on every return path, error exits included.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	opts := harness.Options{Scale: *scale, Seed: *seed, Budget: *budget, Batches: *batches}
	if *benchCSV != "" {
		opts.Benchmarks = strings.Split(*benchCSV, ",")
	}

	if *benchJSON != "" {
		if err := harness.WriteBenchJSONFile(*benchJSON, opts); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote benchmark snapshot to %s\n", *benchJSON)
		return 0
	}
	if *benchCompare != "" {
		// Warnings are advisory (wall clock varies by machine); the exit
		// code stays zero so CI surfaces rather than blocks.
		if _, err := harness.CompareBenchFile(os.Stdout, *benchCompare, *tolerance); err != nil {
			return fail(err)
		}
		return 0
	}

	var sel []harness.Experiment
	pick := func(on bool, es ...harness.Experiment) {
		if on || *all {
			sel = append(sel, es...)
		}
	}
	pick(*table == 1, harness.Table1)
	pick(*table == 2, harness.Table2)
	pick(*table == 3, harness.Table3)
	pick(*table == 4, harness.Table4)
	pick(*figure == 4, harness.Figure4)
	pick(*figure == 5, harness.Figure5)
	pick(*ablations, harness.Ablations...)
	pick(*parallel, harness.Parallel)
	pick(*evolve, harness.Evolve)
	pick(*openWorld, harness.OpenWorld)
	if len(sel) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected: use -all, -table N or -figure N")
		flag.Usage()
		return 2
	}
	if *asCSV && len(sel) != 1 {
		fmt.Fprintf(os.Stderr, "experiments: -csv needs a selection of one table; this one has %d\n", len(sel))
		return 2
	}

	w := os.Stdout
	for _, e := range sel {
		t, err := e(opts)
		if err != nil {
			return fail(err)
		}
		if *asCSV {
			err = t.WriteCSV(w)
		} else if err = t.WriteText(w); err == nil {
			_, err = fmt.Fprintln(w)
		}
		if err != nil {
			return fail(err)
		}
	}
	return 0
}
