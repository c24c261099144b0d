// Race instrumentation inserts its own allocations, so the allocation
// regression is asserted only on uninstrumented builds (the CI full job).
//
//go:build !race

package core_test

import (
	"context"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
)

// warmFigure2 builds the Figure 2 example, freezes it to the CSR layout,
// and warms a DYNSUM engine on both motivating queries.
func warmFigure2(t *testing.T) (*core.DynSum, *fixture.Figure2) {
	t.Helper()
	f := fixture.BuildFigure2()
	f.Prog.G.Freeze()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	dst := core.NewPointsToSet()
	if err := d.Query(nil, dst, f.S1, intstack.Empty); err != nil {
		t.Fatal(err)
	}
	if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
		t.Fatal(err)
	}
	return d, f
}

// TestWarmQueryAllocatesNothing is the allocation-regression guard for the
// zero-allocation query path: a warm-cache DYNSUM points-to query on the
// Figure 2 motivating example, asked through Query with a caller-owned
// result set, must perform zero heap allocations — both with no governing
// context and with one that cannot be canceled. Per-query state lives in
// the pooled Scratch, cached PPTA summaries are handed to the driver as
// read-only views, and the result set's buckets are retained across
// Reset — so the steady state of a batch touches the allocator not at all.
func TestWarmQueryAllocatesNothing(t *testing.T) {
	d, f := warmFigure2(t)
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"nil-ctx", nil},
		{"background-ctx", context.Background()},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst := core.NewPointsToSet()
			if err := d.Query(c.ctx, dst, f.S2, intstack.Empty); err != nil { // size dst's buckets
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := d.Query(c.ctx, dst, f.S2, intstack.Empty); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm-cache Query allocated %.1f times per run, want 0", allocs)
			}
			if dst.Len() == 0 {
				t.Error("warm query returned an empty set")
			}
		})
	}
}

// TestWarmPointsToAllocatesOnlyTheResult bounds the allocating
// convenience API: a warm-cache PointsTo may allocate the returned set
// (struct, map, buckets) and nothing else.
func TestWarmPointsToAllocatesOnlyTheResult(t *testing.T) {
	d, f := warmFigure2(t)
	const resultAllocBound = 6
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.PointsTo(f.S2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resultAllocBound {
		t.Errorf("warm-cache PointsTo allocated %.1f times per run, want <= %d (the result set only)",
			allocs, resultAllocBound)
	}
}

// TestColdQueryAllocationBound documents the cold-path bill: with the
// summary cache emptied before every run (key tables retained, arenas
// released), a Figure 2 query recomputes its PPTA summaries and re-caches
// them. The only allocations are the cache's fresh arena segments and
// method-index lists — proportional to the distinct summaries written
// back, independent of traversal length. The memoised engine caches every
// visited state, not just each traversal's start, and the pointer-free
// cache files all of a run's results into shared arenas instead of
// allocating a block per run: measured 39 (down from 58 with the
// Go-map cache), bounded at 40 so a GC emptying the scratch pool mid-loop
// cannot flake it.
func TestColdQueryAllocationBound(t *testing.T) {
	d, f := warmFigure2(t)
	dst := core.NewPointsToSet()
	const coldAllocBound = 40
	allocs := testing.AllocsPerRun(100, func() {
		core.ClearCache(d)
		if err := d.Query(nil, dst, f.S2, intstack.Empty); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > coldAllocBound {
		t.Errorf("cold Query allocated %.1f times per run, want <= %d", allocs, coldAllocBound)
	}
}
