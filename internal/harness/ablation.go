package harness

import (
	"fmt"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// This file implements the ablations DESIGN.md commits to beyond the
// paper: isolating the summary cache, sweeping benchmark locality, and
// sweeping STASUM's k-limit.

// CacheAblationResult quantifies the value of DYNSUM's summary cache on
// one benchmark/client: the edge work with and without reuse.
type CacheAblationResult struct {
	Bench, Client     string
	EdgesWith         int64
	EdgesWithout      int64
	PPTAVisitsWith    int64
	PPTAVisitsWithout int64
}

// Factor returns how much work the cache saves (without / with).
func (r CacheAblationResult) Factor() float64 { return ratio(r.EdgesWithout, r.EdgesWith) }

// RunCacheAblation measures DYNSUM with the cache enabled and disabled.
func RunCacheAblation(opts Options, bench, client string) CacheAblationResult {
	opts = opts.WithDefaults()
	prog := opts.program(bench)
	noCache := opts.config()
	noCache.DisableCache = true
	on := runClient(client, prog, core.NewDynSum(prog.G, opts.config(), nil)).Metrics
	off := runClient(client, prog, core.NewDynSum(prog.G, noCache, nil)).Metrics
	return CacheAblationResult{
		Bench: bench, Client: client,
		EdgesWith: on.EdgesTraversed, EdgesWithout: off.EdgesTraversed,
		PPTAVisitsWith: on.PPTAVisits, PPTAVisitsWithout: off.PPTAVisits,
	}
}

// LocalityPoint is one point of the locality sweep: the REFINEPTS/DYNSUM
// work ratio on a benchmark regenerated at the given locality percentage.
type LocalityPoint struct {
	LocalityPct float64
	ActualPct   float64 // measured locality of the generated PAG
	WorkRatio   float64 // edgesREFINEPTS / edgesDYNSUM
}

// RunLocalitySweep regenerates bench at each locality target and measures
// the engines on client. The paper presents locality as the scope of
// DYNSUM's optimisation; the ratio should grow with it.
func RunLocalitySweep(opts Options, bench, client string, percents []float64) []LocalityPoint {
	opts = opts.WithDefaults()
	base, ok := benchgen.ProfileByName(bench)
	if !ok {
		panic("harness: unknown benchmark " + bench)
	}
	var out []LocalityPoint
	for _, pct := range percents {
		prof := base.WithLocality(pct).Scaled(opts.Scale)
		prog := benchgen.Generate(prof, opts.Seed)

		dyn := runClient(client, prog, core.NewDynSum(prog.G, opts.config(), nil))
		ref := runClient(client, prog, refine.NewRefinePts(prog.G, opts.config(), nil))
		out = append(out, LocalityPoint{
			LocalityPct: pct,
			ActualPct:   prog.G.Stats().Locality(),
			WorkRatio:   ratio(ref.Metrics.EdgesTraversed, dyn.Metrics.EdgesTraversed),
		})
	}
	return out
}

// GammaPoint is one point of the STASUM k-limit sweep.
type GammaPoint struct {
	Gamma         int
	Summaries     int
	OfflineVisits int64
	FailedQueries int64 // conservative failures over the client run
}

// RunGammaSweep measures STASUM's offline cost and query completeness as
// the k-limit varies — the Yan et al. threshold whose "optimal value is
// unclear" (paper §5.3).
func RunGammaSweep(opts Options, bench, client string, gammas []int) []GammaPoint {
	opts = opts.WithDefaults()
	prog := opts.program(bench)
	var out []GammaPoint
	for _, k := range gammas {
		e := stasum.New(prog.G, opts.config(), nil, stasum.WithMaxGamma(k))
		r := runClient(client, prog, e)
		out = append(out, GammaPoint{
			Gamma:         k,
			Summaries:     e.SummaryCount(),
			OfflineVisits: e.OfflineVisits,
			FailedQueries: r.Metrics.Failed,
		})
	}
	return out
}

// Ablations are the four ablation tables `experiments -ablations` prints.
var Ablations = []Experiment{CacheAblation, LocalityAblation, GammaAblation, CondenseAblation}

// ablationBench is the benchmark the first three ablations run on: the
// first selected one, soot-c by default.
func ablationBench(opts Options) string {
	if len(opts.Benchmarks) > 0 {
		return opts.Benchmarks[0]
	}
	return "soot-c"
}

// CacheAblation tabulates RunCacheAblation for every client.
func CacheAblation(opts Options) (Table, error) {
	bench := ablationBench(opts)
	t := Table{
		Title:  []string{fmt.Sprintf("Ablation 1: DYNSUM summary cache (%s)", bench)},
		Header: []string{"client", "edges(cache on)", "edges(cache off)", "savings(x)"},
	}
	for _, client := range clients.Names() {
		r := RunCacheAblation(opts, bench, client)
		t.addf("%s\t%d\t%d\t%.2f", client, r.EdgesWith, r.EdgesWithout, r.Factor())
	}
	return t, nil
}

// LocalityAblation tabulates RunLocalitySweep on SafeCast.
func LocalityAblation(opts Options) (Table, error) {
	bench := ablationBench(opts)
	t := Table{
		Title:  []string{fmt.Sprintf("Ablation 2: locality sweep (%s, SafeCast)", bench)},
		Header: []string{"target locality%", "actual%", "REFINEPTS/DYNSUM edges"},
	}
	for _, pt := range RunLocalitySweep(opts, bench, "SafeCast", []float64{60, 75, 90}) {
		t.addf("%.0f\t%.1f\t%.2f", pt.LocalityPct, pt.ActualPct, pt.WorkRatio)
	}
	return t, nil
}

// GammaAblation tabulates RunGammaSweep on SafeCast.
func GammaAblation(opts Options) (Table, error) {
	bench := ablationBench(opts)
	t := Table{
		Title:  []string{fmt.Sprintf("Ablation 3: STASUM k-limit sweep (%s, SafeCast)", bench)},
		Header: []string{"gamma", "summaries", "offline visits", "failed queries"},
	}
	for _, pt := range RunGammaSweep(opts, bench, "SafeCast", []int{1, 2, 4, 8, 16}) {
		t.addf("%d\t%d\t%d\t%d", pt.Gamma, pt.Summaries, pt.OfflineVisits, pt.FailedQueries)
	}
	return t, nil
}

// CondenseAblation reports, for every selected benchmark profile and its
// cyclic and diamond variants, the freeze-time SCC condensation and the
// memoisation counters of a cold NullDeref run: spliced counts cached
// sub-summaries merged into in-flight traversals, written-back the fresh
// cache entries those traversals inserted (start states included).
func CondenseAblation(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title: []string{fmt.Sprintf("Ablation 4: SCC condensation and memoisation (scale %.3f, cold NullDeref run)", opts.Scale)},
		Header: []string{"benchmark", "sccs", "largest", "nodes", "reps", "node-red%", "local-edges",
			"condensed", "edge-red%", "spliced", "written-back"},
	}
	for _, ps := range [][]benchgen.Profile{benchgen.Profiles, benchgen.CyclicProfiles, benchgen.DiamondProfiles} {
		for _, p := range opts.selected(ps) {
			prog := benchgen.Generate(p, opts.Seed)
			s := prog.G.CondenseStats()
			m := runClient("NullDeref", prog, core.NewDynSum(prog.G, opts.config(), nil)).Metrics
			t.addf("%s\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%.1f\t%d\t%d",
				p.Name, s.SCCs, s.LargestSCC, s.Nodes, s.Reps, s.NodeReduction(),
				s.LocalEdges, s.CondensedLocalEdges, s.LocalEdgeReduction(),
				m.SplicedSummaries, m.WrittenBackSummaries)
		}
	}
	return t, nil
}
