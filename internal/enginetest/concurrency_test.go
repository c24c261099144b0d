package enginetest

import (
	"fmt"
	"sync"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// queryCtx answers one query through Query into a fresh set.
func queryCtx(d *core.DynSum, v pag.NodeID, cc intstack.ID) (*core.PointsToSet, error) {
	pts := core.NewPointsToSet()
	err := d.Query(nil, pts, v, cc)
	return pts, err
}

// TestConcurrentBatchMatchesSerial fires overlapping BatchPointsToCtx
// calls plus direct concurrent Query calls at one shared DYNSUM engine and
// asserts every answer matches a serial engine over the same context
// table. Under -race this validates the whole concurrent kernel — sharded
// summary cache, lock-free stack tables, atomic metrics — and in any mode
// it validates that summary sharing across goroutines loses no precision.
//
// Comparisons skip queries either side abandons conservatively: cache
// warming is schedule-dependent while budgets are per-query, so near the
// budget boundary a query may fail on one side and complete on the other
// in either direction (see the core/batch.go file comment). Queries both
// sides complete must agree exactly.
func TestConcurrentBatchMatchesSerial(t *testing.T) {
	for seed := int64(700); seed < 700+seedSpan(6); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{
			Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3,
		})
		ctxs := new(intstack.Table)
		locals := fixture.AllLocals(prog)
		queries := make([]core.Query, len(locals))
		for i, v := range locals {
			queries[i] = core.Query{Var: v, Ctx: intstack.Empty}
		}

		serial := core.NewDynSum(prog.G, bigBudget, ctxs)
		want := make([]*core.PointsToSet, len(queries))
		wantErr := make([]error, len(queries))
		for i, q := range queries {
			want[i], wantErr[i] = queryCtx(serial, q.Var, q.Ctx)
			if wantErr[i] != nil && !conservative(wantErr[i]) {
				t.Fatalf("seed %d: serial: %v", seed, wantErr[i])
			}
		}

		shared := core.NewDynSum(prog.G, bigBudget, ctxs)
		const batches = 3
		results := make([][]core.Result, batches)
		directPts := make([]*core.PointsToSet, len(queries))
		directErr := make([]error, len(queries))
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				results[b] = shared.BatchPointsToCtx(nil, queries, 4)
			}(b)
		}
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				directPts[i], directErr[i] = queryCtx(shared, queries[i].Var, queries[i].Ctx)
			}(i)
		}
		wg.Wait()

		check := func(tag string, i int, pts *core.PointsToSet, err error) {
			t.Helper()
			compareOn(t, fmt.Sprintf("seed %d %s", seed, tag), prog.G,
				queries[i].Var, pts, want[i], err, wantErr[i], true)
		}
		for b := 0; b < batches; b++ {
			for i, r := range results[b] {
				check(fmt.Sprintf("batch %d", b), i, r.Pts, r.Err)
			}
		}
		for i := range queries {
			check("direct", i, directPts[i], directErr[i])
		}
	}
}
