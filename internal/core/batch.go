package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements batch query execution: a worker pool that fans a
// slice of points-to queries out over goroutines sharing one DynSum engine.
// The workers share the summary cache, so a batch gets the paper's
// Figure 4 amortisation effect concurrently — each summary computed by any
// worker is reused by all of them. Per-query state (budget, worklist,
// points-to set) stays private to the querying goroutine, so every query
// that completes returns exactly the serial engine's points-to set.
//
// The one schedule-dependent outcome is conservative failure near the
// budget boundary: how warm the cache is when a given query runs depends
// on execution order, so a query that squeaks under its budget serially
// (riding summaries an earlier query cached) may exhaust it when run
// concurrently before that warming happened — and vice versa. Such
// queries fail with ErrBudget exactly as a cold serial query would, and
// clients already treat that conservatively.
//
// Lifecycle hardening (DESIGN.md §12): every worker answers each claimed
// query through its own recover boundary, so a panicking query yields a
// *QueryPanicError in its result slot instead of killing the worker and
// stranding the WaitGroup; and a canceled context drains the pool — each
// worker keeps claiming slots but fills them with ErrCanceled results
// without traversing, so Wait returns promptly, every slot stays
// positionally aligned, and no goroutine leaks.

// Query is one batched points-to request: a variable and the calling
// context (an ID in the engine's context table; intstack.Empty for the
// usual whole-program query).
type Query struct {
	Var pag.NodeID
	Ctx intstack.ID
}

// Result is the outcome of one batched query, in the same position as its
// Query. A non-nil Err means the query did not complete:
//
//   - Partial true (ErrBudget/ErrDepth/ErrCanceled): Pts is the sound
//     partial set accumulated before the abort — everything in it is a
//     real may-point-to fact, absence proves nothing — and the client
//     must answer conservatively, exactly as for serial PointsTo errors.
//   - Partial false (*QueryPanicError): the traversal was interrupted
//     mid-step; Pts is nil because nothing about its content is
//     trustworthy. The engine itself is unharmed (see QueryPanicError).
type Result struct {
	Var     pag.NodeID
	Ctx     intstack.ID
	Pts     *PointsToSet
	Err     error
	Partial bool
}

// BatchPointsToCtx answers every query, fanning the batch out across
// workers goroutines sharing this engine's summary cache. workers <= 0
// selects GOMAXPROCS; a single worker (or a single query) runs inline
// without spawning. Results are positionally aligned with queries.
//
// Each query carries its own traversal budget, as in the serial engine;
// sharing summaries never changes the answer of a query that completes
// (see internal/enginetest for the equivalence suite), though which
// queries exhaust their budget can differ from a serial run near the
// budget boundary (see the file comment above).
//
// ctx may be nil. Once ctx is done, in-flight queries abort cooperatively
// with ErrCanceled (within one cancelCheckInterval of budget steps) and
// the remaining queries are drained — their slots are filled with
// ErrCanceled results without any traversal — so the call returns
// promptly with every result slot populated and the worker pool fully
// drained.
func (d *DynSum) BatchPointsToCtx(ctx context.Context, queries []Query, workers int) []Result {
	results := make([]Result, len(queries))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			results[i] = d.batchOne(ctx, q)
		}
		return results
	}

	// Dynamic dispatch on an atomic cursor: cheap, and naturally balances
	// the skewed per-query costs a warm cache produces.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				results[i] = d.batchOne(ctx, queries[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// batchOne answers one batched query behind its own panic boundary.
// pointsToInto already quarantines traversal panics into its error
// return; the recover here is the second boundary the batch needs — it
// catches anything outside that window (result-set allocation, a
// panicking user Tracer after the traversal) so a worker goroutine can
// never die with the WaitGroup held.
func (d *DynSum) batchOne(ctx context.Context, q Query) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			if qp, ok := r.(*QueryPanicError); ok {
				// Already typed by an inner boundary: keep the original.
				res = Result{Var: q.Var, Ctx: q.Ctx, Err: qp}
				return
			}
			res = Result{Var: q.Var, Ctx: q.Ctx, Err: newQueryPanicError(q.Var, q.Ctx, r)}
		}
	}()
	pts := NewPointsToSet()
	err := d.pointsToInto(ctx, pts, q.Var, q.Ctx, d.cfg.Budget)
	if _, isPanic := err.(*QueryPanicError); isPanic {
		// Quarantined traversal: the partial set is untrustworthy.
		pts = nil
	}
	return Result{Var: q.Var, Ctx: q.Ctx, Pts: pts, Err: err, Partial: IsPartial(err)}
}
