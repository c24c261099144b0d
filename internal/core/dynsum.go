package core

import (
	"context"
	"slices"
	"sync/atomic"

	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// DynSum is the paper's contribution (Algorithm 4): a context-sensitive
// demand-driven points-to engine that factors each query into
// context-independent PPTA summaries over local edges (Algorithm 3, cached
// across contexts and across queries) and a worklist over the
// context-bearing global edges, on which it performs the RRP
// balanced-parentheses matching of paper Figure 3(b).
//
// The summary cache persists for the lifetime of the engine, so a batch of
// queries sharing library code gets progressively cheaper — the effect
// measured in paper Figure 4.
//
// Each shape of question has one entry point, all on one query path:
// PointsTo (Analysis), Query (one variable and context into a caller-owned
// set) and BatchPointsToCtx (a worker pool); RetryPolicy wraps Query.
//
// A DynSum engine is safe for concurrent queries: the summary cache is
// sharded (see cache.go), the stack tables intern concurrently, and the
// work counters are updated atomically, so PointsTo and Query may be
// called from many goroutines and BatchPointsToCtx fans a query batch out
// across a worker pool. The mutating operations (ApplyDelta, Compact,
// ApplySpecs, EnableOpenWorld, ImportSummaries, setting Tracer) are not
// synchronised with in-flight queries; quiesce the engine before calling
// them. The summary cache and adjacency modes (Config.DisableCache,
// Config.DisableCondense) are fixed when the engine is built.
type DynSum struct {
	// metrics must stay the first field: its int64 counters are updated
	// with sync/atomic, which requires 8-byte alignment that 32-bit
	// platforms only guarantee at the start of an allocated struct.
	metrics Metrics

	g   *pag.Graph
	cfg Config

	// ov is the delta overlay of an evolved engine (nil until the first
	// ApplyDelta): the frozen graph plus the epochs applied so far. It is
	// installed and advanced only by the mutators (ApplyDelta, Compact),
	// under the same quiescence contract, so queries read it plainly.
	ov *delta.Overlay
	// compactions counts how many times the overlay was merged back into
	// a fresh frozen graph (auto-trigger or explicit Compact).
	compactions int

	fields *intstack.Table // field stacks (the tier's, shared by its engines)
	ctxs   *intstack.Table // context stacks (shareable across engines)

	// cache is the engine's view of its summary tier: the tier entries it
	// may see plus a private table (tier.go).
	cache *summaryView

	// ow is the open-world model (nil on closed-world engines — the single
	// nil-check is all a closed-world query pays). Installed by
	// EnableOpenWorld and rebuilt by the adjacency mutators; see
	// openworld.go.
	ow *owModel

	// Tracer, when set, receives one event per driver tuple and per PPTA
	// summary computation; the Table 1 reproduction uses it. Events from
	// concurrent queries arrive on the calling goroutines — install a
	// tracer only on serially-driven engines, or make it thread-safe.
	Tracer func(TraceEvent)
}

// TraceEvent describes one step of the driver, mirroring the columns of
// paper Table 1.
type TraceEvent struct {
	Node   pag.NodeID
	Fields []intstack.Sym // field stack, top first (ppta events only)
	State  State
	Ctx    []intstack.Sym // context stack, top first
	Reused bool           // true when the PPTA summary came from the cache
	Kind   string         // "tuple" (driver step) or "ppta" (summary computed)
}

// NewDynSum builds a DYNSUM engine over g on a summary tier of its own
// (engines that should share stored summaries are built with
// SummaryTier.NewDynSum instead). ctxs may be nil (a private table is
// created) or shared with other engines so that their points-to sets are
// directly comparable.
func NewDynSum(g *pag.Graph, cfg Config, ctxs *intstack.Table) *DynSum {
	return NewSummaryTier(g, cfg).NewDynSum(ctxs)
}

// clean reports whether the engine's summaries are the tier's base
// values, so its write-backs may go to the tier: it still runs on the
// tier's graph with no overlay and no open-world model, and has never
// detached. Cleanliness only ever ends — an overlay or open-world model is
// never removed, and Compact detaches — so a clean engine's private table
// stays empty and the tier entries it sees never hide a private one.
func (d *DynSum) clean() bool {
	return d.ov == nil && d.ow == nil && d.g == d.cache.tier.g && !d.cache.detached.Load()
}

// condensation returns the graph's SCC-condensed overlay, or nil when
// Config.DisableCondense is set. Everything downstream — the
// driver expansion, the PPTA traversal and the summary-cache keys — hangs
// off this one choice, so the two paths can never mix within a query.
func (d *DynSum) condensation() *pag.Condensation {
	if d.cfg.DisableCondense {
		return nil
	}
	return d.g.Condensation()
}

// Name implements Analysis.
func (d *DynSum) Name() string { return "DYNSUM" }

// Metrics implements Analysis.
func (d *DynSum) Metrics() *Metrics { return &d.metrics }

// Ctxs returns the engine's context-stack table; points-to sets returned
// by the engine use IDs from this table.
func (d *DynSum) Ctxs() *intstack.Table { return d.ctxs }

// SummaryCount returns the number of PPTA summaries currently cached —
// the quantity Figure 5 compares against STASUM. Tier entries count when
// the engine sees them.
func (d *DynSum) SummaryCount() int { return d.cache.size() }

// SummaryCounts splits SummaryCount by where the summaries live: the
// tier entries the engine sees, and its private entries.
func (d *DynSum) SummaryCounts() (visible, private int) {
	return int(d.cache.visible.Load()), d.cache.priv.size()
}

// invalidateMethods drops every summary whose key node lies in one of ms
// (pag.NoMethod selects the global nodes) and returns how many it dropped:
// tier entries the engine saw are hidden from it (the tier keeps them for
// its other engines), private entries are removed. Summary keys are SCC
// representatives on condensed graphs, but assign SCCs never cross
// methods, so the representative's method is the summary's method.
// ApplyDelta calls it with an epoch's touched methods. The cache keeps no
// per-method index: the methods become a node bitset, delta-added nodes
// included, so the cache scan that follows tests one bit per slot. An
// evolved engine reads the nodes off the overlay's method index; without
// an overlay, or for NoMethod (which the index does not cover), it is one
// pass over the view's node table.
func (d *DynSum) invalidateMethods(ms []pag.MethodID) int {
	if len(ms) == 0 || d.cache.size() == 0 {
		return 0
	}
	gv := graphView{g: d.g, ov: d.ov}
	nodes := newBitset(gv.numNodes())
	if !d.indexedMethodNodes(ms, nodes) {
		numMethods := d.g.NumMethods()
		if d.ov != nil {
			numMethods = d.ov.NumMethods()
		}
		// Methods are offset by one so NoMethod (-1) is member 0; IDs
		// outside the program name no node and are skipped.
		methods := newBitset(numMethods + 1)
		for _, m := range ms {
			if m >= pag.NoMethod && int(m) < numMethods {
				methods.add(int(m) + 1)
			}
		}
		for n := range gv.numNodes() {
			if methods.has(uint64(gv.nodeMethod(pag.NodeID(n)) + 1)) {
				nodes.add(n)
			}
		}
	}
	return d.cache.deleteNodes(nodes)
}

// indexedMethodNodes adds the nodes of ms to nodes from the overlay's
// method index. It reports false, leaving the set to the node-table pass,
// when there is no overlay or ms names NoMethod (the index does not cover
// global nodes).
func (d *DynSum) indexedMethodNodes(ms []pag.MethodID, nodes bitset) bool {
	if d.ov == nil || slices.Contains(ms, pag.NoMethod) {
		return false
	}
	for _, m := range ms {
		base, added := d.ov.MethodNodes(m)
		for _, n := range base {
			nodes.add(int(n))
		}
		for _, n := range added {
			nodes.add(int(n))
		}
	}
	return true
}

// SummaryCached reports whether the start-state PPTA summary of a
// PointsTo query on v is already in the summary cache — the probe the
// serving layer (internal/serve) uses to classify a request as warm
// (cheap lane) or cold (whale lane) before admitting it. The probe is
// exact for the query's first summary and a heuristic for the whole
// traversal: a warm start state almost always means the query's
// footprint was cached by the traversal that created it (write-backs
// cover every state a completed run visited, DESIGN.md §9). Nodes with
// no local edges need no PPTA at all and count as warm. With
// Config.DisableCache nothing is ever warm.
//
// Like the query entry points, the probe reads the overlay pointer and
// the cache; callers must order it against mutators exactly as they
// order queries (the serve layer holds its per-session read lock).
func (d *DynSum) SummaryCached(v pag.NodeID) bool {
	if d.cfg.DisableCache {
		return false
	}
	gv := graphView{g: d.g, cond: d.condensation(), ov: d.ov}
	n := gv.rep(v)
	if !gv.hasLocalEdges(n) {
		return true
	}
	_, ok := d.cache.get(pptaState{node: n, fs: intstack.Empty, st: S1})
	return ok
}

// PointsTo implements Analysis: the points-to set of v under the empty
// initial context, in a freshly allocated set. It is Query with no
// governing context and a new dst.
func (d *DynSum) PointsTo(v pag.NodeID) (*PointsToSet, error) {
	pts := NewPointsToSet()
	err := d.Query(nil, pts, v, intstack.Empty)
	return pts, err
}

// Query computes DYNSUM(v, cc) of paper Algorithm 4 — the points-to set of
// v in calling context cc (intstack.Empty for the whole-program query) —
// into dst, which is emptied (retaining capacity) first. On a partial
// abort dst holds the sound partial set. A warm-cache query allocates
// nothing: per-query state lives in a pooled Scratch and cached summaries
// are read-only views.
//
// ctx may be nil. Otherwise cancellation or a deadline aborts the
// traversal cooperatively — the budget polls ctx.Done() every
// cancelCheckInterval steps — with ErrCanceled, which also matches the
// context's own cause under errors.Is.
func (d *DynSum) Query(ctx context.Context, dst *PointsToSet, v pag.NodeID, cc intstack.ID) error {
	return d.pointsToInto(ctx, dst, v, cc, d.cfg.Budget)
}

// pointsToInto is the single query path PointsTo, Query, the batch
// workers and RetryPolicy funnel through: it resolves the adjacency,
// arms the budget with the governing context (nil for PointsTo), and runs
// the driver inside the panic-quarantine boundary — quarantineRelease is
// the only way the borrowed Scratch leaves this function, pooled on normal
// return (sc.completed) and abandoned on panic. budget is a parameter
// (rather than always d.cfg.Budget) so RetryPolicy can escalate it
// per-attempt without mutating the engine.
func (d *DynSum) pointsToInto(ctx context.Context, dst *PointsToSet, v pag.NodeID, cc intstack.ID, budget int) (err error) {
	atomic.AddInt64(&d.metrics.Queries, 1)
	dst.Reset()
	if cerr := ctxDone(ctx); cerr != nil {
		// Already over: answer before borrowing a scratch. This is what
		// lets canceled batch workers drain their remaining slots cheaply.
		atomic.AddInt64(&d.metrics.Failed, 1)
		return cerr
	}
	sc := getScratch()
	sc.bud = Budget{Limit: budget}
	sc.bud.arm(ctx)
	defer quarantineRelease(sc, &d.metrics, graphView{g: d.g, ov: d.ov}.numNodes(), v, cc, &err)
	err = runDriverInto(d.g, d.condensation(), d.ov, d.ctxs, d.cfg, (*dynSummarizer)(d), v, cc, &sc.bud, &d.metrics, d.Tracer, dst, sc)
	sc.completed = true
	return err
}

// dynSummarizer adapts DynSum's cached PPTA to the driver interface.
type dynSummarizer DynSum

// SliceFields implements FieldSlicer for trace rendering.
func (ds *dynSummarizer) SliceFields(fs intstack.ID) []intstack.Sym {
	return (*DynSum)(ds).fields.Slice(fs)
}

// Summarize returns the PPTA result for the state, from the cache when
// possible (Algorithm 4, lines 5-9). Nodes without local edges bypass both
// the PPTA and the cache (paper §4.3). Cache hits hand the driver direct
// read-only views of the immutable cached result — no conversion, no
// allocation.
//
// On a miss with the cache live, the memoised traversal runs: it splices
// cached sub-summaries into the closure instead of re-expanding their
// states, and on success its queued per-state write-backs are committed as
// one batch — so a single cold query warms the cache for every state it
// visited, not just its own start. With Config.DisableCache both halves are
// bypassed and the flat single-result traversal runs instead (nothing
// read, nothing written).
//
// On a condensed graph the state is rep-mapped first, so the cache is
// keyed by SCC representatives: every member of an assign cycle hits the
// one shared entry. (The driver already propagates representatives; the
// mapping here also covers direct Summarize calls and keeps mixed callers
// safe.) Freshly computed results are hash-consed on insertion, so
// structurally equal summaries across cache entries share one record.
func (ds *dynSummarizer) Summarize(n pag.NodeID, fs intstack.ID, st State, bud *Budget, sc *Scratch) (Summary, bool, error) {
	d := (*DynSum)(ds)
	gv := sc.gv // resolved once per query by the driver
	n = gv.rep(n)
	if d.ow != nil {
		// Open-world hook: states in actively-bodyless methods are served
		// their blended summary before the closed-world machinery sees
		// them. See openworld.go.
		if r, ok := d.ow.active[gv.nodeMethod(n)]; ok {
			atomic.AddInt64(&d.metrics.BlendedSummaries, 1)
			return *r, true, nil
		}
	}
	if !gv.hasLocalEdges(n) {
		//lint:allow scratchpin identity view is consumed before the next Summarize call
		return Summary{Frontier: sc.Identity(n, fs, st)}, false, nil
	}
	key := pptaState{node: n, fs: fs, st: st}

	if d.cfg.DisableCache {
		r, err := runPPTA(gv, d.fields, key, d.cfg, bud, &d.metrics, sc)
		if err != nil {
			return Summary{}, false, err
		}
		atomic.AddInt64(&d.metrics.Summaries, 1)
		if d.Tracer != nil {
			d.Tracer(TraceEvent{Node: n, Fields: d.fields.Slice(fs), State: st, Kind: "ppta"})
		}
		return r, false, nil
	}

	if r, ok := d.cache.get(key); ok {
		atomic.AddInt64(&d.metrics.CacheHits, 1)
		return r, true, nil
	}
	atomic.AddInt64(&d.metrics.CacheMisses, 1)
	sum, err := runPPTAMemo(gv, d.fields, d.cache, key, d.cfg, bud, sc)
	if err != nil {
		return Summary{}, false, err
	}
	atomic.AddInt64(&d.metrics.Summaries, 1)
	if d.Tracer != nil {
		d.Tracer(TraceEvent{Node: n, Fields: d.fields.Slice(fs), State: st, Kind: "ppta"})
	}
	d.commitWriteBacks(sc)
	return sum, false, nil
}

// commitWriteBacks files and batch-inserts the per-state summaries a
// successful memoised traversal queued in sc. Called only after the whole
// traversal completed, so every committed entry is a complete closure; an
// aborted traversal never reaches here (its pending queue was discarded).
//
// A clean engine publishes to its tier, any other to its private table
// (summaryView.commit). Each distinct result to be filed (runs of equal
// indices in pendRIdx are one SCC's members) is hash-consed straight into
// the store's arenas in one critical section, then the keys are published
// under the stripe locks.
func (d *DynSum) commitWriteBacks(sc *Scratch) {
	if len(sc.pendKeys) == 0 {
		return
	}
	// The last instant before anything is materialised: a fault here must
	// leave the cache byte-identical (the crash-consistency sweep checks).
	faultinject.Fire(faultinject.WriteBackCommit)
	sc.written += int64(d.cache.commit(sc, d.clean()))
	sc.pendKeys = sc.pendKeys[:0]
	sc.pendRIdx = sc.pendRIdx[:0]
	sc.pendRec = sc.pendRec[:0]
}
