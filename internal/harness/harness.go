// Package harness regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic benchmark suite: Table 1 (the DYNSUM
// step trace on Figure 2), Table 2 (the qualitative engine matrix),
// Table 3 (benchmark statistics), Table 4 (analysis times of NOREFINE /
// REFINEPTS / DYNSUM for the three clients), Figure 4 (per-batch times of
// DYNSUM normalised to REFINEPTS) and Figure 5 (cumulative DYNSUM
// summaries as a percentage of STASUM's offline total).
//
// Wall-clock numbers depend on the machine, so every experiment also
// reports deterministic work counters (PAG edges traversed); the paper's
// claims reproduced here are the relative ones — who wins, by what factor,
// and how the curves trend.
package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the Table 3 benchmark sizes (default 0.02; the
	// paper's sizes correspond to 1.0).
	Scale float64
	// Seed drives the deterministic benchmark generator.
	Seed int64
	// Benchmarks restricts the run (nil = all nine).
	Benchmarks []string
	// Budget is the per-query traversal budget (default 75,000 as in the
	// paper).
	Budget int
	// Batches is the number of query batches for Figures 4 and 5
	// (default 10 as in the paper).
	Batches int
}

// WithDefaults fills unset options.
func (o Options) WithDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Budget == 0 {
		o.Budget = core.DefaultBudget
	}
	if o.Batches == 0 {
		o.Batches = 10
	}
	return o
}

func (o Options) config() core.Config { return core.Config{Budget: o.Budget} }

// profiles returns the selected benchmark profiles, scaled.
func (o Options) profiles() []benchgen.Profile {
	var out []benchgen.Profile
	for _, p := range benchgen.Profiles {
		if len(o.Benchmarks) > 0 && !contains(o.Benchmarks, p.Name) {
			continue
		}
		out = append(out, p.Scaled(o.Scale))
	}
	return out
}

func contains(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// generate builds one benchmark program.
func (o Options) generate(p benchgen.Profile) *pag.Program {
	return benchgen.Generate(p, o.Seed)
}

// EngineNames lists the Table 4 engines in paper order.
var EngineNames = []string{"NOREFINE", "REFINEPTS", "DYNSUM"}

// newEngine constructs a fresh engine by name.
func newEngine(name string, g *pag.Graph, cfg core.Config) core.Analysis {
	switch name {
	case "NOREFINE":
		return refine.NewNoRefine(g, cfg, nil)
	case "REFINEPTS":
		return refine.NewRefinePts(g, cfg, nil)
	case "DYNSUM":
		return core.NewDynSum(g, cfg, nil)
	}
	panic("harness: unknown engine " + name)
}

// timedClient runs one client with one engine and returns the elapsed time
// and the engine metrics.
func timedClient(client string, prog *pag.Program, a core.Analysis) (time.Duration, *clients.Report, core.Metrics) {
	start := time.Now()
	rep, err := clients.Run(client, prog, a, 1)
	if err != nil {
		panic(err) // client names are internal constants
	}
	return time.Since(start), rep, *a.Metrics()
}

// newTabWriter returns a tabwriter on w with the harness's format.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// subProgram returns a shallow copy of prog restricted to the [i:j) slice
// of each client's query sites — the batching device for Figures 4 and 5.
func subProgram(prog *pag.Program, client string, i, j int) *pag.Program {
	cp := *prog
	cp.Casts, cp.Derefs, cp.Factories = nil, nil, nil
	switch client {
	case "SafeCast":
		cp.Casts = prog.Casts[min(i, len(prog.Casts)):min(j, len(prog.Casts))]
	case "NullDeref":
		cp.Derefs = prog.Derefs[min(i, len(prog.Derefs)):min(j, len(prog.Derefs))]
	case "FactoryM":
		cp.Factories = prog.Factories[min(i, len(prog.Factories)):min(j, len(prog.Factories))]
	}
	return &cp
}

// queryCount returns the number of query sites of client in prog.
func queryCount(prog *pag.Program, client string) int {
	switch client {
	case "SafeCast":
		return len(prog.Casts)
	case "NullDeref":
		return len(prog.Derefs)
	case "FactoryM":
		return len(prog.Factories)
	}
	return 0
}

func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
