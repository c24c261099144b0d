// Package stasum implements STASUM, the static whole-program
// summary-based demand analysis the paper compares against (Yan et al.,
// ISSTA'11; paper §4.4, Table 2 and Figure 5).
//
// Where DYNSUM summarises a method's local reachability on demand for the
// concrete field stack of the current query, STASUM precomputes, offline
// and for every method in the program, one summary per (boundary node,
// direction): boundary nodes are the call entries/exits and global-variable
// accesses where the Algorithm-4 driver can land. Because the entry field
// stack is unknown offline, the summaries are symbolic: each summary item
// records
//
//   - γ (gamma): the sequence of fields the local traversal consumed from
//     the unknown entry stack (top first),
//   - δ (delta): the fields it left pushed on top, and
//   - needExtra: whether the path took a "new new-bar" direction switch at
//     a moment when the entry stack had to hold strictly more than γ.
//
// Applying a summary to a concrete stack f is then prefix matching:
// an item fires iff f starts with γ (and |f| > |γ| when needExtra), and
// the continuation stack is δ on top of f minus γ. Object items fire only
// when f equals γ exactly (the whole stack must be matched at an
// allocation site, paper Algorithm 3 line 7).
//
// γ is bounded by MaxGamma; a traversal that would consume more marks the
// summary as overflowed, and queries that reach an overflowed summary fail
// conservatively. This is the "user-supplied threshold" knob of Yan et
// al.; with the default bound it never triggers on the benchmarks, and the
// ablation benchmark sweeps it.
package stasum

import (
	"sync/atomic"

	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// MaxGammaDefault bounds the consumed-prefix length of one summary item.
const MaxGammaDefault = 16

// MaxOfflineVisitsDefault bounds the symbolic states explored per summary.
// Local field cycles can generate exponentially many distinct symbolic
// stacks; summaries that hit the bound are marked overflowed and queries
// through them fail conservatively. (Yan et al. expose the analogous
// "user-supplied threshold"; the paper notes its optimal value is unclear,
// which Figure 5 exploits.)
const MaxOfflineVisitsDefault = 20000

// Engine is the STASUM analysis. Construct with New, which runs the
// offline whole-program summary pass.
type Engine struct {
	// metrics must stay the first field: the shared driver updates its
	// int64 counters with sync/atomic, which requires the 8-byte alignment
	// 32-bit platforms only guarantee at the start of an allocated struct.
	metrics core.Metrics

	g   *pag.Graph
	cfg core.Config

	fields *intstack.Table // δ stacks and query-time concrete stacks
	gammas *intstack.Table // interned γ sequences (visited-set keys)
	ctxs   *intstack.Table

	maxGamma  int
	maxVisits int
	summaries map[sumKey]*summary

	// OfflineVisits counts symbolic states visited during precomputation,
	// the cost STASUM pays before the first query.
	OfflineVisits int64
}

type sumKey struct {
	node pag.NodeID
	st   core.State
}

type objItem struct {
	obj   pag.NodeID
	gamma []intstack.Sym // f must equal gamma exactly
}

type frItem struct {
	node      pag.NodeID
	gamma     []intstack.Sym // consumed prefix, top first
	delta     intstack.ID    // pushed suffix
	st        core.State
	needExtra bool // f must be strictly deeper than gamma
}

type summary struct {
	objs     []objItem
	frontier []frItem
	overflow bool
}

// Option configures the engine.
type Option func(*Engine)

// WithMaxGamma overrides the consumed-prefix bound.
func WithMaxGamma(k int) Option {
	return func(e *Engine) { e.maxGamma = k }
}

// WithMaxOfflineVisits overrides the per-summary symbolic state budget.
func WithMaxOfflineVisits(n int) Option {
	return func(e *Engine) { e.maxVisits = n }
}

// New builds the engine and runs the offline summary pass over every
// method of g. ctxs may be nil or shared with other engines.
func New(g *pag.Graph, cfg core.Config, ctxs *intstack.Table, opts ...Option) *Engine {
	if ctxs == nil {
		ctxs = new(intstack.Table)
	}
	e := &Engine{
		g:         g,
		cfg:       cfg.WithDefaults(),
		fields:    new(intstack.Table),
		gammas:    new(intstack.Table),
		ctxs:      ctxs,
		maxGamma:  MaxGammaDefault,
		maxVisits: MaxOfflineVisitsDefault,
		summaries: make(map[sumKey]*summary),
	}
	for _, o := range opts {
		o(e)
	}
	e.precompute()
	return e
}

// Name implements core.Analysis.
func (e *Engine) Name() string { return "STASUM" }

// Metrics implements core.Analysis.
func (e *Engine) Metrics() *core.Metrics { return &e.metrics }

// Ctxs returns the engine's context table.
func (e *Engine) Ctxs() *intstack.Table { return e.ctxs }

// SummaryCount returns the number of precomputed summaries — the Figure 5
// denominator.
func (e *Engine) SummaryCount() int { return len(e.summaries) }

// precompute builds a summary for every boundary node of every method:
// S1 summaries where the driver lands travelling backwards (nodes with an
// outgoing global edge), S2 summaries where it lands travelling forwards
// (nodes with an incoming global edge).
func (e *Engine) precompute() {
	for i := 0; i < e.g.NumNodes(); i++ {
		n := pag.NodeID(i)
		if !e.g.HasLocalEdges(n) {
			continue
		}
		if e.g.HasGlobalOut(n) {
			e.summaries[sumKey{n, core.S1}] = e.summarize(n, core.S1)
		}
		if e.g.HasGlobalIn(n) {
			e.summaries[sumKey{n, core.S2}] = e.summarize(n, core.S2)
		}
	}
	atomic.StoreInt64(&e.metrics.Summaries, int64(len(e.summaries)))
}

// symState is one state of the symbolic PPTA.
type symState struct {
	node      pag.NodeID
	gamma     intstack.ID // consumed entry prefix (bottom=first consumed)
	delta     intstack.ID // pushed suffix
	st        core.State
	needExtra bool
}

// summarize runs the symbolic PPTA from (n, st) with an unknown entry
// stack.
func (e *Engine) summarize(n pag.NodeID, st core.State) *summary {
	sum := &summary{}
	start := symState{node: n, st: st}
	visited := map[symState]bool{start: true}
	work := []symState{start}

	push := func(s symState) {
		if !visited[s] {
			visited[s] = true
			work = append(work, s)
		}
	}

	// pop attempts to match field g against the symbolic stack: either
	// the top of δ matches, or δ is empty and g is consumed from the
	// entry stack (extending γ and clearing needExtra).
	pop := func(cur symState, g intstack.Sym) (symState, bool) {
		if top, ok := e.fields.Peek(cur.delta); ok {
			if top != g {
				return symState{}, false
			}
			cur.delta = e.fields.Pop(cur.delta)
			return cur, true
		}
		if e.gammas.Depth(cur.gamma) >= e.maxGamma {
			sum.overflow = true
			return symState{}, false
		}
		cur.gamma = e.gammas.Push(cur.gamma, g)
		cur.needExtra = false
		return cur, true
	}

	visits := 0
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		e.OfflineVisits++
		visits++
		if visits > e.maxVisits {
			sum.overflow = true
			break
		}

		switch cur.st {
		case core.S1:
			if e.g.HasGlobalIn(cur.node) {
				sum.frontier = append(sum.frontier, frItem{
					node: cur.node, gamma: e.gammaSeq(cur.gamma),
					delta: cur.delta, st: core.S1, needExtra: cur.needExtra,
				})
			}
			for _, edge := range e.g.LocalIn(cur.node) {
				switch edge.Kind {
				case pag.New:
					if cur.delta == intstack.Empty {
						// Empty-stack case: emit the object, guarded on
						// the entry stack being exactly γ (impossible
						// under a pending needExtra constraint).
						if !cur.needExtra {
							sum.objs = append(sum.objs, objItem{obj: edge.Src, gamma: e.gammaSeq(cur.gamma)})
						}
						// Nonempty case: switch direction, requiring the
						// entry stack to be deeper than γ.
						for _, e2 := range e.g.LocalOut(edge.Src) {
							if e2.Kind == pag.New {
								push(symState{node: e2.Dst, gamma: cur.gamma, delta: cur.delta, st: core.S2, needExtra: true})
							}
						}
					} else {
						// δ nonempty: the stack is definitely nonempty.
						for _, e2 := range e.g.LocalOut(edge.Src) {
							if e2.Kind == pag.New {
								push(symState{node: e2.Dst, gamma: cur.gamma, delta: cur.delta, st: core.S2, needExtra: cur.needExtra})
							}
						}
					}
				case pag.Assign:
					push(symState{node: edge.Src, gamma: cur.gamma, delta: cur.delta, st: core.S1, needExtra: cur.needExtra})
				case pag.Load:
					if e.fields.Depth(cur.delta) >= e.cfg.MaxFieldDepth {
						sum.overflow = true
						continue
					}
					push(symState{node: edge.Src, gamma: cur.gamma,
						delta: e.fields.Push(cur.delta, edge.Label), st: core.S1, needExtra: cur.needExtra})
				}
			}

		case core.S2:
			if e.g.HasGlobalOut(cur.node) {
				sum.frontier = append(sum.frontier, frItem{
					node: cur.node, gamma: e.gammaSeq(cur.gamma),
					delta: cur.delta, st: core.S2, needExtra: cur.needExtra,
				})
			}
			for _, edge := range e.g.LocalOut(cur.node) {
				switch edge.Kind {
				case pag.Assign:
					push(symState{node: edge.Dst, gamma: cur.gamma, delta: cur.delta, st: core.S2, needExtra: cur.needExtra})
				case pag.Load:
					if next, ok := pop(cur, edge.Label); ok {
						next.node = edge.Dst
						next.st = core.S2
						push(next)
					}
				case pag.Store:
					if e.fields.Depth(cur.delta) >= e.cfg.MaxFieldDepth {
						sum.overflow = true
						continue
					}
					push(symState{node: edge.Dst, gamma: cur.gamma,
						delta: e.fields.Push(cur.delta, edge.Label), st: core.S1, needExtra: cur.needExtra})
				}
			}
			for _, edge := range e.g.LocalIn(cur.node) {
				if edge.Kind != pag.Store {
					continue
				}
				if next, ok := pop(cur, edge.Label); ok {
					next.node = edge.Src
					next.st = core.S1
					push(next)
				}
			}
		}
	}
	return sum
}

// gammaSeq materialises a γ stack as a top-first field sequence: the first
// element is the first field consumed, i.e. the top of the concrete stack.
func (e *Engine) gammaSeq(g intstack.ID) []intstack.Sym {
	s := e.gammas.Slice(g) // most recently consumed first
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s // consumption order = concrete-stack top first
}

// PointsTo implements core.Analysis: it answers a query using the
// precomputed summaries and the shared Algorithm-4 driver.
//
// STASUM explicitly opts out of the SCC-condensed overlay (nil
// condensation): its offline pass keys symbolic summaries by original
// boundary nodes, and the Table 2 / Figure 5 comparisons require its work
// counters to reflect Yan et al.'s algorithm, not DYNSUM's condensation
// optimisation. (The same opt-out reasoning applies to REFINEPTS/NOREFINE
// and the Andersen oracle, which never touch the driver: REFINEPTS's memo
// is keyed by ⟨node, context⟩ pairs the paper's refinement loop inspects
// per match edge, and Andersen mutates the graph pre-freeze.)
func (e *Engine) PointsTo(v pag.NodeID) (*core.PointsToSet, error) {
	atomic.AddInt64(&e.metrics.Queries, 1)
	bud := core.NewBudget(e.cfg.Budget)
	return core.RunDriver(e.g, nil, e.ctxs, e.cfg, (*staSummarizer)(e), v, intstack.Empty, bud, &e.metrics, nil)
}

type staSummarizer Engine

// Summarize applies the precomputed summary of (n, st) to the concrete
// field stack fs. Query roots that are not boundary nodes get a summary
// computed (and stored) lazily — it is still a static, stack-independent
// summary.
func (ss *staSummarizer) Summarize(n pag.NodeID, fs intstack.ID, st core.State, bud *core.Budget, sc *core.Scratch) (core.Summary, bool, error) {
	e := (*Engine)(ss)
	if !e.g.HasLocalEdges(n) {
		return core.Summary{Frontier: sc.Identity(n, fs, st)}, false, nil
	}
	key := sumKey{n, st}
	sum, ok := e.summaries[key]
	if ok {
		atomic.AddInt64(&e.metrics.CacheHits, 1)
	} else {
		atomic.AddInt64(&e.metrics.CacheMisses, 1)
		sum = e.summarize(n, st)
		e.summaries[key] = sum
		atomic.StoreInt64(&e.metrics.Summaries, int64(len(e.summaries)))
	}
	if sum.overflow {
		// Items may be missing: answering from this summary would be
		// unsound, so the query fails conservatively.
		return core.Summary{}, ok, core.ErrDepth
	}

	var out core.Summary
	for _, oi := range sum.objs {
		if !bud.Step() {
			return out, ok, core.ErrBudget
		}
		atomic.AddInt64(&e.metrics.EdgesTraversed, 1)
		if e.fields.HasPrefix(fs, oi.gamma) && e.fields.Depth(fs) == len(oi.gamma) {
			out.Objects = append(out.Objects, oi.obj)
		}
	}
	for _, fi := range sum.frontier {
		if !bud.Step() {
			return out, ok, core.ErrBudget
		}
		atomic.AddInt64(&e.metrics.EdgesTraversed, 1)
		if !e.fields.HasPrefix(fs, fi.gamma) {
			continue
		}
		if fi.needExtra && e.fields.Depth(fs) <= len(fi.gamma) {
			continue
		}
		rest := e.fields.DropPrefix(fs, fi.gamma)
		// Re-apply δ bottom-up on top of the remainder.
		deltaTopFirst := e.fields.Slice(fi.delta)
		newFs := rest
		for i := len(deltaTopFirst) - 1; i >= 0; i-- {
			newFs = e.fields.Push(newFs, deltaTopFirst[i])
		}
		out.Frontier = append(out.Frontier, core.FrontierState{Node: fi.node, Fs: newFs, St: fi.st})
	}
	return out, ok, nil
}
