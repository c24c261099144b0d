// Package enginetest cross-validates the four demand-driven engines
// (DYNSUM, NOREFINE, REFINEPTS, STASUM) against each other, against the
// Andersen whole-program oracle, and against the generic CFL-reachability
// solver, on seeded random programs. These are the properties the paper
// asserts in §4 ("without any precision loss") and Table 2.
package enginetest

import (
	"errors"
	"fmt"
	"testing"

	"dynsum/internal/andersen"
	"dynsum/internal/cfl"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// bigBudget makes budget exhaustion unlikely on the small random graphs,
// so result comparisons are exact. It must not be too large: pathological
// field-cyclic queries burn the whole budget before failing conservatively,
// and the suite visits hundreds of queries.
var bigBudget = core.Config{Budget: 150_000}

// engineMode is one cell of the engine-mode matrix the sweeps cover: the
// summary cache on or off × condensed or base adjacency, as the two
// Config fields that select them.
type engineMode struct {
	name string
	cfg  core.Config
}

// engineModes is the whole matrix. The evolve sweep replays its first
// three cells; the fault, persistence, tier and open-world sweeps all four.
var engineModes = []engineMode{
	{"memo+condensed", core.Config{}},
	{"memo+base", core.Config{DisableCondense: true}},
	{"nomemo+condensed", core.Config{DisableCache: true}},
	{"nomemo+base", core.Config{DisableCache: true, DisableCondense: true}},
}

// with returns cfg switched to mode m.
func (m engineMode) with(cfg core.Config) core.Config {
	cfg.DisableCache, cfg.DisableCondense = m.cfg.DisableCache, m.cfg.DisableCondense
	return cfg
}

// seedSpan returns how many random-program seeds a sweep visits: the full
// count by default (CI runs the exhaustive ~20s suite), a small fixed
// subset under -short so the developer loop stays fast while every
// property is still exercised on a few programs.
func seedSpan(full int64) int64 {
	if testing.Short() && full > 4 {
		return 4
	}
	return full
}

// conservative reports whether err is an allowed conservative failure
// (budget or stack-depth exhaustion). Random graphs contain local field
// cycles on which the explicit-field-stack engines (DYNSUM, STASUM) must
// give up while the nested-subquery engines (REFINEPTS/NOREFINE) terminate
// through their (node, context) memo — both behaviours are correct under
// the paper's budgeted semantics, so equivalence is asserted only on
// queries every engine completes, and the skip rate is bounded.
func conservative(err error) bool {
	return errors.Is(err, core.ErrBudget) || errors.Is(err, core.ErrDepth)
}

// compareOn checks a query on two engines, returning "skip" when either
// fails conservatively.
func compareOn(t *testing.T, tag string, g interface {
	NodeString(pag.NodeID) string
}, v pag.NodeID, a, b *core.PointsToSet, errA, errB error, full bool) (skipped bool) {
	t.Helper()
	if errA != nil || errB != nil {
		if (errA == nil || conservative(errA)) && (errB == nil || conservative(errB)) {
			return true
		}
		t.Fatalf("%s node %d: unexpected errors %v / %v", tag, v, errA, errB)
	}
	equal := a.Equal(b)
	if !full {
		equal = a.SameObjects(b)
	}
	if !equal {
		t.Errorf("%s: pts(%s): %v != %v", tag, g.NodeString(v), a, b)
	}
	return false
}

// TestDynSumEqualsNoRefine is the paper's central no-precision-loss claim:
// factoring queries through cached context-independent PPTA summaries must
// not change the answer — including heap contexts — relative to the direct
// fully field-sensitive analysis.
func TestDynSumEqualsNoRefine(t *testing.T) {
	total, skipped := 0, 0
	for seed := int64(0); seed < seedSpan(30); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		if err := prog.G.Validate(); err != nil {
			t.Fatalf("seed %d: invalid PAG: %v", seed, err)
		}
		ctxs := new(intstack.Table)
		dyn := core.NewDynSum(prog.G, bigBudget, ctxs)
		nor := refine.NewNoRefine(prog.G, bigBudget, ctxs)
		for _, v := range fixture.AllLocals(prog) {
			total++
			a, errA := dyn.PointsTo(v)
			b, errB := nor.PointsTo(v)
			if compareOn(t, fmt.Sprintf("seed %d", seed), prog.G, v, a, b, errA, errB, true) {
				skipped++
			}
		}
	}
	if skipped*3 > total {
		t.Errorf("too many conservative skips: %d of %d", skipped, total)
	}
}

// TestRefinePtsConvergesToDynSum: run to full refinement, REFINEPTS must
// agree with DYNSUM.
func TestRefinePtsConvergesToDynSum(t *testing.T) {
	for seed := int64(0); seed < seedSpan(20); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 4, Calls: 5, Globals: 1, GlobalAssigns: 2,
		})
		ctxs := new(intstack.Table)
		dyn := core.NewDynSum(prog.G, bigBudget, ctxs)
		ref := refine.NewRefinePts(prog.G, bigBudget, ctxs)
		for _, v := range fixture.AllLocals(prog) {
			a, errA := dyn.PointsTo(v)
			b, errB := ref.PointsTo(v)
			compareOn(t, fmt.Sprintf("seed %d", seed), prog.G, v, a, b, errA, errB, true)
		}
	}
}

// TestStaSumMatchesDynSum: the symbolic static summaries applied to
// concrete stacks must reproduce the dynamic summaries' answers exactly
// (within the default gamma bound).
func TestStaSumMatchesDynSum(t *testing.T) {
	for seed := int64(0); seed < seedSpan(20); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 4, Calls: 5, Globals: 1, GlobalAssigns: 2,
		})
		ctxs := new(intstack.Table)
		dyn := core.NewDynSum(prog.G, bigBudget, ctxs)
		sta := stasum.New(prog.G, bigBudget, ctxs)
		for _, v := range fixture.AllLocals(prog) {
			a, errA := dyn.PointsTo(v)
			b, errB := sta.PointsTo(v)
			compareOn(t, fmt.Sprintf("seed %d", seed), prog.G, v, a, b, errA, errB, true)
		}
	}
}

// TestSoundnessAgainstAndersen: every demand-driven object set must be a
// subset of the context-insensitive Andersen solution.
func TestSoundnessAgainstAndersen(t *testing.T) {
	for seed := int64(100); seed < 100+seedSpan(20); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		whole := andersen.Solve(prog.G, nil, nil)
		ctxs := new(intstack.Table)
		engines := []core.Analysis{
			core.NewDynSum(prog.G, bigBudget, ctxs),
			refine.NewNoRefine(prog.G, bigBudget, ctxs),
			refine.NewRefinePts(prog.G, bigBudget, ctxs),
			stasum.New(prog.G, bigBudget, ctxs),
		}
		for _, v := range fixture.AllLocals(prog) {
			for _, eng := range engines {
				pts, err := eng.PointsTo(v)
				if err != nil {
					continue // conservative failures are fine for soundness
				}
				for _, o := range pts.Objects() {
					if !whole.Has(v, o) {
						t.Errorf("seed %d: %s claims %s points to %s, Andersen disagrees",
							seed, eng.Name(), prog.G.NodeString(v), prog.G.NodeString(o))
					}
				}
			}
		}
	}
}

// TestLocalOnlyAgainstCFLOracle: on single-method programs (where context
// sensitivity cannot matter) every engine must coincide exactly with the
// generic cubic CFL-reachability solver running the LFT grammar — the
// executable specification of §3.2.
func TestLocalOnlyAgainstCFLOracle(t *testing.T) {
	for seed := int64(200); seed < 200+seedSpan(30); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 1, VarsPerMethod: 7, ObjectsPerMethod: 3,
			LocalEdges: 10, Calls: 1, // Calls ignored: single method, acyclic mode skips
		})
		oracle := cfl.PointsToOracle(prog.G)
		ctxs := new(intstack.Table)
		engines := []core.Analysis{
			core.NewDynSum(prog.G, bigBudget, ctxs),
			refine.NewNoRefine(prog.G, bigBudget, ctxs),
			refine.NewRefinePts(prog.G, bigBudget, ctxs),
			stasum.New(prog.G, bigBudget, ctxs),
		}
		for _, v := range fixture.AllLocals(prog) {
			want := oracle[v]
			for _, eng := range engines {
				pts, err := eng.PointsTo(v)
				if err != nil {
					if conservative(err) {
						continue
					}
					t.Fatalf("seed %d: %s: %v", seed, eng.Name(), err)
				}
				got := pts.Objects()
				if len(got) != len(want) {
					t.Errorf("seed %d: %s pts(%s) = %v, oracle %v",
						seed, eng.Name(), prog.G.NodeString(v), got, want)
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("seed %d: %s pts(%s) = %v, oracle %v",
							seed, eng.Name(), prog.G.NodeString(v), got, want)
						break
					}
				}
			}
		}
	}
}

// TestRecursiveProgramsTerminate: with recursion allowed and a small
// budget, every engine must terminate with either an answer or a
// conservative error — never hang or panic.
func TestRecursiveProgramsTerminate(t *testing.T) {
	cfg := core.Config{Budget: 20_000, MaxFieldDepth: 16, MaxCtxDepth: 16}
	for seed := int64(300); seed < 300+seedSpan(15); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 4, Calls: 8, Recursive: true, Globals: 1, GlobalAssigns: 2,
		})
		engines := []core.Analysis{
			core.NewDynSum(prog.G, cfg, nil),
			refine.NewNoRefine(prog.G, cfg, nil),
			refine.NewRefinePts(prog.G, cfg, nil),
			stasum.New(prog.G, cfg, nil),
		}
		for _, v := range fixture.AllLocals(prog) {
			for _, eng := range engines {
				if _, err := eng.PointsTo(v); err != nil &&
					!errors.Is(err, core.ErrBudget) && !errors.Is(err, core.ErrDepth) {
					t.Fatalf("seed %d: %s: unexpected error %v", seed, eng.Name(), err)
				}
			}
		}
	}
}

// TestWarmCacheIsPureOptimisation: answers from a warm DYNSUM engine equal
// answers from a cold one on every query of a random workload.
func TestWarmCacheIsPureOptimisation(t *testing.T) {
	for seed := int64(400); seed < 400+seedSpan(10); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		ctxs := new(intstack.Table)
		warm := core.NewDynSum(prog.G, bigBudget, ctxs)
		locals := fixture.AllLocals(prog)
		// Warm up on all queries, then re-ask and compare to cold engines.
		for _, v := range locals {
			if _, err := warm.PointsTo(v); err != nil && !conservative(err) {
				t.Fatal(err)
			}
		}
		for _, v := range locals {
			cold := core.NewDynSum(prog.G, bigBudget, ctxs)
			a, errA := cold.PointsTo(v)
			b, errB := warm.PointsTo(v)
			compareOn(t, fmt.Sprintf("seed %d", seed), prog.G, v, a, b, errA, errB, true)
		}
	}
}

var _ = pag.NoNode // keep pag import for godoc references
