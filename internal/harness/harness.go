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
	"slices"
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

// profiles returns the selected Table 3 profiles, scaled.
func (o Options) profiles() []benchgen.Profile { return o.selected(benchgen.Profiles) }

// selected returns the profiles of ps the options select, scaled.
func (o Options) selected(ps []benchgen.Profile) []benchgen.Profile {
	var out []benchgen.Profile
	for _, p := range ps {
		if len(o.Benchmarks) > 0 && !slices.Contains(o.Benchmarks, p.Name) {
			continue
		}
		out = append(out, p.Scaled(o.Scale))
	}
	return out
}

// program generates bench, one of the selected Table 3 profiles, at the
// options' scale and seed.
func (o Options) program(bench string) *pag.Program {
	for _, p := range o.profiles() {
		if p.Name == bench {
			return benchgen.Generate(p, o.Seed)
		}
	}
	panic("harness: unknown benchmark " + bench)
}

// figureBenchmarks returns the Figure 4 benchmarks the options select.
func (o Options) figureBenchmarks() []string {
	var out []string
	for _, b := range Figure4Benchmarks {
		if len(o.Benchmarks) == 0 || slices.Contains(o.Benchmarks, b) {
			out = append(out, b)
		}
	}
	return out
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

// ClientRun is one client run on one engine.
type ClientRun struct {
	Time    time.Duration
	Report  *clients.Report
	Metrics core.Metrics // the engine's counters after the run
}

// runClient runs client over prog on engine a and reads a's counters
// afterwards. Given a fresh engine it is the cold client run behind Table
// 4, the ablations and the table4/, condense/ and cold/ bench records.
func runClient(client string, prog *pag.Program, a core.Analysis) ClientRun {
	start := time.Now()
	rep, err := clients.Run(client, prog, a, 1)
	if err != nil {
		panic(err) // client names are internal constants
	}
	return ClientRun{Time: time.Since(start), Report: rep, Metrics: a.Metrics().Snapshot()}
}

// batches splits client's query sites of prog into n batches of equal
// size, the last taking the remainder, as in the paper (one site each
// when there are fewer sites than batches): each batch is a shallow copy
// of prog holding only its slice of the client's sites — the batching
// device for Figures 4 and 5.
func batches(prog *pag.Program, client string, n int) []*pag.Program {
	var out []*pag.Program
	split := func(total int, keep func(cp *pag.Program, lo, hi int)) {
		per := max(total/n, 1)
		for b := 0; b < n && b*per < total; b++ {
			hi := (b + 1) * per
			if b == n-1 {
				hi = total
			}
			cp := *prog
			cp.Casts, cp.Derefs, cp.Factories = nil, nil, nil
			keep(&cp, b*per, hi)
			out = append(out, &cp)
		}
	}
	switch client {
	case "SafeCast":
		split(len(prog.Casts), func(cp *pag.Program, lo, hi int) { cp.Casts = prog.Casts[lo:hi] })
	case "NullDeref":
		split(len(prog.Derefs), func(cp *pag.Program, lo, hi int) { cp.Derefs = prog.Derefs[lo:hi] })
	case "FactoryM":
		split(len(prog.Factories), func(cp *pag.Program, lo, hi int) { cp.Factories = prog.Factories[lo:hi] })
	}
	return out
}
