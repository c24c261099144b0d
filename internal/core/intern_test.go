package core

import (
	"slices"
	"sync"
	"testing"

	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// TestInternSharesEqualSlices: structurally equal results file to one
// record whose views share one arena range (pointer-equal), unequal ones
// stay distinct.
func TestInternSharesEqualSlices(t *testing.T) {
	st := new(resultStore)

	a := []pag.NodeID{1, 2, 3}
	b := []pag.NodeID{1, 2, 3}
	c := []pag.NodeID{1, 2, 4}
	ra, _ := st.file(a, nil)
	if got := st.view(ra).Objects; !slices.Equal(got, a) || &got[0] == &a[0] {
		t.Errorf("first intern stored %v (aliasing the caller: %v), want an arena copy of %v", got, &got[0] == &a[0], a)
	}
	if rb, _ := st.file(b, nil); rb != ra || &st.view(rb).Objects[0] != &st.view(ra).Objects[0] {
		t.Error("equal object slices did not share one record")
	}
	if rc, _ := st.file(c, nil); rc == ra {
		t.Error("unequal object slices were merged")
	}

	f1 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S1}}
	f2 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S1}}
	f3 := []FrontierState{{Node: 7, Fs: intstack.Empty, St: S2}}
	r1, _ := st.file(nil, f1)
	if r2, _ := st.file(nil, f2); r2 != r1 {
		t.Error("equal frontier slices did not share one record")
	}
	if r3, _ := st.file(nil, f3); r3 == r1 {
		t.Error("unequal frontier slices were merged")
	}

	if shared, unique := st.shared.Load(), st.unique.Load(); shared != 2 || unique != 4 {
		t.Errorf("stats = (%d shared, %d unique), want (2, 4)", shared, unique)
	}
}

// TestInternEmptySlices: nil and empty results are one record whose views
// are nil, and they take no arena space.
func TestInternEmptySlices(t *testing.T) {
	st := new(resultStore)
	r1, _ := st.file(nil, nil)
	r2, _ := st.file([]pag.NodeID{}, []FrontierState{})
	if r1 != r2 {
		t.Error("nil and empty results filed as different records")
	}
	if v := st.view(r1); v.Objects != nil || v.Frontier != nil {
		t.Errorf("empty result views = %v, want nil halves", v)
	}
	if st.objs.n != 0 || st.frs.n != 0 {
		t.Errorf("empty results used arena space: %d objects, %d frontier states", st.objs.n, st.frs.n)
	}
}

// TestInternConcurrent hammers one store from many goroutines with a
// small value universe; every filed record must carry the right contents
// (run with -race to check the locking).
func TestInternConcurrent(t *testing.T) {
	st := new(resultStore)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := pag.NodeID(i % 17)
				r, _ := st.file([]pag.NodeID{v, v + 1}, nil)
				st.mu.Lock()
				got := st.view(r).Objects
				st.mu.Unlock()
				if len(got) != 2 || got[0] != v || got[1] != v+1 {
					t.Errorf("corrupted intern result %v", got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if unique := st.unique.Load(); unique != 17 {
		t.Errorf("unique = %d, want 17", unique)
	}
}

// TestInternedAnswersMatchUncached runs a random-program workload and
// compares every answer against an engine that neither caches nor interns
// — sharing result records must be invisible to results.
func TestInternedAnswersMatchUncached(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		prog.G.Freeze()
		cfg := Config{Budget: 200_000}
		interned := NewDynSum(prog.G, cfg, nil)
		plain := NewDynSum(prog.G, Config{Budget: 200_000, DisableCache: true}, interned.Ctxs())
		for pass := 0; pass < 2; pass++ { // second pass hits shared arrays
			for _, v := range fixture.AllLocals(prog) {
				a, errA := interned.PointsTo(v)
				b, errB := plain.PointsTo(v)
				if (errA == nil) != (errB == nil) {
					continue // budget boundary; conservative either way
				}
				if errA == nil && !a.Equal(b) {
					t.Fatalf("seed %d pass %d: interned pts(%s) = %v, uncached %v",
						seed, pass, prog.G.NodeString(v), a, b)
				}
			}
		}
		if interned.cache.tier.store.unique.Load() == 0 {
			t.Errorf("seed %d: interning never activated", seed)
		}
	}
}

// TestDynSumInternsCachedSummaries: a warmed engine on a program with
// repeated structure reports interning activity, and repeated queries
// still answer identically (sharing is invisible to results).
func TestDynSumInternsCachedSummaries(t *testing.T) {
	f := fixture.BuildFigure2()
	f.Prog.G.Freeze()
	d := NewDynSum(f.Prog.G, Config{}, nil)
	for _, q := range []pag.NodeID{f.S1, f.S2} {
		if _, err := d.PointsTo(q); err != nil {
			t.Fatal(err)
		}
	}
	shared, unique := d.cache.tier.store.shared.Load(), d.cache.tier.store.unique.Load()
	if unique == 0 {
		t.Error("no summaries interned on a warmed engine")
	}
	if shared < 0 {
		t.Error("negative shared count")
	}
	a, err := d.PointsTo(f.S1)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewDynSum(f.Prog.G, Config{}, d.Ctxs())
	b, err := cold.PointsTo(f.S1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("interned warm answer %v != cold answer %v", a, b)
	}
}
