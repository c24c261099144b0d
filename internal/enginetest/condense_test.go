package enginetest

import (
	"fmt"
	"testing"

	"dynsum/internal/andersen"
	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
)

// This file is the condensed-vs-uncondensed equivalence sweep: DYNSUM
// running on the SCC-condensed overlay must answer every query with the
// identical (object, heap-context) set as DYNSUM on the base adjacency —
// and both must satisfy the Table 2 invariants (same precision class as
// NOREFINE, sound w.r.t. Andersen) — across the random corpus AND the
// cyclic benchmark programs, whose giant assign SCCs are what the
// condensation exists for.

// condensedPair builds two DYNSUM engines over one frozen graph: one on
// the condensed overlay, one forced onto the base adjacency.
func condensedPair(g *pag.Graph, ctxs *intstack.Table) (on, off *core.DynSum) {
	base := bigBudget
	base.DisableCondense = true
	return core.NewDynSum(g, bigBudget, ctxs), core.NewDynSum(g, base, ctxs)
}

// TestCondensedMatchesUncondensedRandomCorpus sweeps the random programs:
// freezing builds the condensation, and answers through it must be
// identical — including heap contexts — to the base path on the same
// graph.
func TestCondensedMatchesUncondensedRandomCorpus(t *testing.T) {
	total, cyclic := 0, 0
	for seed := int64(700); seed < 700+seedSpan(20); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		prog.G.Freeze()
		if prog.G.Condensation() == nil {
			t.Fatalf("seed %d: frozen graph has no condensation", seed)
		}
		if !prog.G.Condensation().Trivial() {
			cyclic++
		}
		ctxs := new(intstack.Table)
		on, off := condensedPair(prog.G, ctxs)
		nor := refine.NewNoRefine(prog.G, bigBudget, ctxs)
		for _, v := range fixture.AllLocals(prog) {
			total++
			a, errA := on.PointsTo(v)
			b, errB := off.PointsTo(v)
			compareOn(t, fmt.Sprintf("seed %d condensed-vs-base", seed), prog.G, v, a, b, errA, errB, true)
			// Table 2 precision class: DYNSUM (condensed) == NOREFINE.
			c, errC := nor.PointsTo(v)
			compareOn(t, fmt.Sprintf("seed %d condensed-vs-norefine", seed), prog.G, v, a, c, errA, errC, true)
		}
	}
	if cyclic == 0 {
		t.Log("random corpus produced no assign SCCs; cyclic coverage comes from the benchgen sweep")
	}
	if total == 0 {
		t.Fatal("empty sweep")
	}
}

// TestCondensedMatchesUncondensedCyclicBenchmarks runs the sweep where it
// bites: the cyclic benchgen profiles, whose generated programs collapse
// by >50% of nodes. Every client query variable must agree exactly, and
// the condensed path must traverse at most as many edges.
func TestCondensedMatchesUncondensedCyclicBenchmarks(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	for _, p := range benchgen.CyclicProfiles {
		prog := benchgen.Generate(p.Scaled(scale), 7)
		s := prog.G.CondenseStats()
		if s.SCCs == 0 {
			t.Fatalf("%s: no SCCs in a cyclic profile", p.Name)
		}
		ctxs := new(intstack.Table)
		on, off := condensedPair(prog.G, ctxs)
		whole := andersen.Solve(prog.G, nil, nil)
		queried := map[pag.NodeID]bool{}
		for _, v := range queryVars(prog) {
			if queried[v] {
				continue
			}
			queried[v] = true
			a, errA := on.PointsTo(v)
			b, errB := off.PointsTo(v)
			if compareOn(t, p.Name+" condensed-vs-base", prog.G, v, a, b, errA, errB, true) {
				continue
			}
			// Table 2 soundness: condensed answers stay inside Andersen.
			for _, o := range a.Objects() {
				if !whole.Has(v, o) {
					t.Errorf("%s: condensed pts(%s) contains %s, Andersen disagrees",
						p.Name, prog.G.NodeString(v), prog.G.NodeString(o))
				}
			}
		}
		mOn, mOff := on.Metrics().Snapshot(), off.Metrics().Snapshot()
		if mOn.EdgesTraversed > mOff.EdgesTraversed {
			t.Errorf("%s: condensed traversed MORE edges (%d > %d)",
				p.Name, mOn.EdgesTraversed, mOff.EdgesTraversed)
		}
	}
}

// queryVars gathers every client query variable of a generated program.
func queryVars(prog *pag.Program) []pag.NodeID {
	var out []pag.NodeID
	for _, c := range prog.Casts {
		out = append(out, c.Var)
	}
	for _, d := range prog.Derefs {
		out = append(out, d.Var)
	}
	for _, f := range prog.Factories {
		out = append(out, f.Ret)
	}
	return out
}

// TestCondensedSummariesSharedAcrossSCCMembers pins the cache-sharing
// claim: querying two distinct members of one assign SCC must hit one
// shared representative-keyed summary, not compute two.
func TestCondensedSummariesSharedAcrossSCCMembers(t *testing.T) {
	b := pag.NewBuilder()
	cls := b.Class("C", pag.NoClass)
	m := b.Method("M", cls)
	x := b.Local(m, "x", cls)
	y := b.Local(m, "y", cls)
	z := b.Local(m, "z", cls)
	o := b.NewObject(x, "o", cls)
	b.Copy(y, x)
	b.Copy(z, y)
	b.Copy(x, z) // cycle x->y->z->x
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDynSum(g, core.Config{}, nil)
	for _, v := range []pag.NodeID{x, y, z} {
		pts, err := d.PointsTo(v)
		if err != nil {
			t.Fatal(err)
		}
		if !pts.HasObject(o) || pts.Len() != 1 {
			t.Fatalf("pts(%s) = %v", g.NodeString(v), pts)
		}
	}
	if got := d.SummaryCount(); got != 1 {
		t.Errorf("three SCC-member queries cached %d summaries, want 1 shared entry", got)
	}
	m2 := d.Metrics().Snapshot()
	if m2.CacheHits < 2 {
		t.Errorf("expected >=2 cache hits from member queries, got %d", m2.CacheHits)
	}
}
