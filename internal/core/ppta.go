package core

import (
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements the Partial Points-To Analysis (PPTA) of paper
// Algorithm 3 (DSPOINTSTO): a field-sensitive but context-independent
// closure over the local edges (new/assign/load/store) of one method.
//
// Starting from a state (node, field-stack, direction), the PPTA follows
// the pointsTo and alias RSMs of paper Figure 3(a) across local edges only
// and produces
//
//   - the objects that flow to the start node entirely through local edges
//     with the field stack fully matched, and
//   - the frontier: every reached state whose node touches a global edge
//     in the direction the traversal would continue (incoming for S1,
//     outgoing for S2; Algorithm 3 lines 15-16 and 28-29).
//
// Because local edges never change the calling context, the result is
// reusable under every context — the paper's central observation — and is
// cached by the driver keyed on the full start state.
//
// Two implementations share the transition rules below:
//
//   - runPPTA, the flat worklist closure, used when the summary cache is
//     disabled: one visited set, one result, nothing cached.
//   - runPPTAMemo, the memoised closure used whenever the cache is live.
//     It runs an iterative Tarjan-style DFS over the PPTA state graph so
//     that (a) before expanding a state it probes the summary cache and,
//     on a hit, splices the cached objects and frontier into the result
//     instead of re-walking the state's sub-closure, and (b) when a
//     strongly-connected component of states completes, the exact
//     objects+frontier reachable from it are materialised and queued for
//     write-back into the cache under every member state. One cold query
//     thereby warms the cache for its entire footprint — the move
//     demand-driven CFL engines make when they cache reachability at every
//     node visited, not just the query root — and the next query touching
//     any of those states splices instead of traversing.
//
// Soundness of both halves: a cached entry is only ever the complete
// closure of its state (write-back happens at SCC completion, when every
// successor of every member has itself completed, and a budget or depth
// abort discards all pending write-backs), so splicing a hit is
// observationally identical to expanding the state. Per-state results are
// deduplicated sets; the flat path may carry duplicates, the driver
// deduplicates on consumption either way.
//
// The loops iterate the partitioned adjacency accessors (LocalIn/LocalOut)
// so only local edges are ever touched, and all transient state (visited
// tables keyed by dense uint64 encodings, DFS stacks, arenas) lives in the
// query's Scratch; only final result slices destined for the summary cache
// are heap-allocated.
//
// Transition rules (value-flow edge orientation; derived from the paper's
// listings and validated step-by-step against the Table 1 trace — see
// DESIGN.md §4):
//
//	S1 at n (traversing flowsTo-bar, over incoming edges):
//	  new o→n:      field stack empty → emit o;
//	                otherwise for each o→new→z continue (z, f, S2)
//	  assign x→n:   continue (x, f, S1)
//	  load(g) x→n:  continue (x, push(f,g), S1)
//
//	S2 at n (traversing flowsTo, over outgoing edges + incoming stores):
//	  assign n→y:          continue (y, f, S2)
//	  load(g) n→y:         if top(f)=g continue (y, pop(f), S2)
//	  store(g) n→x (out):  continue (x, push(f,g), S1)
//	  store(g) y→n (in):   if top(f)=g continue (y, pop(f), S1)

// pptaState is one visited PPTA state; it doubles as the summary-cache key.
type pptaState struct {
	node pag.NodeID
	fs   intstack.ID
	st   State
}

// memoState is one discovered state of the memoised traversal. Its index
// in Scratch.mstates is its Tarjan discovery number. result is -1 while
// the state is open (on the component stack) and the index of its SCC's
// memoResult once the component completes; splice records (cache hits) are
// born completed and never enter the DFS.
type memoState struct {
	st       pptaState
	low      int32 // Tarjan lowlink (discovery numbers)
	result   int32 // -1 open; >=0 completed result index
	succOff  int32 // successor tuples: Scratch.msucc[succOff:succOff+succLen]
	succLen  int32
	ownOff   int32 // own-emitted objects: Scratch.mOwnObj[ownOff:ownOff+ownLen]
	ownLen   int32
	frontier bool // the state itself is a frontier exit point
}

// memoResult is one completed closure: either the views of a cached
// result (splice records) or ranges into the Scratch result arenas.
type memoResult struct {
	cached         Summary
	spliced        bool
	objOff, objLen int32
	frOff, frLen   int32
}

// memoFrame is one DFS stack entry: a state index and the position of the
// next unprocessed successor.
type memoFrame struct {
	idx int32
	pos int32
}

// dropMemoRefs zeroes the cache-arena views the traversal parked in its
// splice records, so the pooled Scratch cannot keep another engine's (or a
// since-cleared cache's) arena segments alive. Called at the end of every
// memoised run — the returned Summary views the arenas, never these
// records, so the driver's consumption window is unaffected. (Zeroing at
// pool return instead would memset full buffer capacities on every warm
// query; here it touches only the records this run wrote.) The pending
// write-back queue holds no pointers at all.
func (sc *Scratch) dropMemoRefs() {
	for i := range sc.mres {
		sc.mres[i].cached = Summary{}
	}
}

// discardPending throws away the queued write-backs (budget/depth abort:
// partial closures must never reach the cache). The queue holds only
// state keys and result indices — nothing was materialised yet.
func (sc *Scratch) discardPending() {
	sc.pendKeys = sc.pendKeys[:0]
	sc.pendRIdx = sc.pendRIdx[:0]
}

// The three helpers below are the PPTA's only field-stack operations, and
// the single place the wildcard stack ⊤ (intstack.Wild, open-world blended
// summaries) is given its semantics: ⊤ simulates every concrete stack, so
// it emits at New edges like the empty stack, absorbs pushes without ever
// tripping the depth bound, and matches every Load/Store label. Closed-world
// traversals never see ⊤ and behave exactly as before.
//
// (Encoding note: the pkey/fkey packings remap ⊤ to 0x7FFFFFFF before
// shifting — see pkey in scratch.go for why the raw value must not be
// packed.)

// emitsObject reports whether a New in-edge reached at stack fs emits its
// object: the stack is fully matched (Empty) or wildcard.
func emitsObject(fs intstack.ID) bool {
	return fs == intstack.Empty || fs == intstack.Wild
}

// pushField pushes label onto fs, enforcing the configured depth bound on
// concrete stacks; ⊤ absorbs the push.
func pushField(fields *intstack.Table, fs intstack.ID, label int32, maxDepth int) (intstack.ID, error) {
	if fs == intstack.Wild {
		return intstack.Wild, nil
	}
	if fields.Depth(fs) >= maxDepth {
		return 0, ErrDepth
	}
	return fields.Push(fs, label), nil
}

// matchField pops label off fs when it is the top symbol; ⊤ matches every
// label and stays ⊤. ok is false when the stack is empty or tops a
// different label — the traversal does not continue then.
func matchField(fields *intstack.Table, fs intstack.ID, label int32) (intstack.ID, bool) {
	if fs == intstack.Wild {
		return intstack.Wild, true
	}
	if top, ok := fields.Peek(fs); ok && top == label {
		return fields.Pop(fs), true
	}
	return 0, false
}

// fkey is the dense encoding of a FrontierState, matching pkey's layout
// (including the ⊤ remapping — see pkey).
func fkey(f FrontierState) uint64 {
	return uint64(uint32(f.Node))<<32 | fsKeyBits(f.Fs)<<1 | uint64(f.St)
}

// resultViews resolves result record r into its object and frontier
// slices. Arena-backed views are resolved against the current arena, so
// they remain correct across arena growth; they are read-only and valid
// until the Scratch is reset.
//
//lint:allow scratchpin deliberate arena views; read-only, reset-bounded lifetime
func (sc *Scratch) resultViews(r int32) ([]pag.NodeID, []FrontierState) {
	mr := &sc.mres[r]
	if mr.spliced {
		return mr.cached.Objects, mr.cached.Frontier
	}
	return sc.mResObj[mr.objOff : mr.objOff+mr.objLen],
		sc.mResFr[mr.frOff : mr.frOff+mr.frLen]
}

// runPPTA computes DSPOINTSTO(start) with an explicit work stack inside
// sc — the flat, cache-oblivious closure, used when summary caching is
// disabled (and serving as the executable oracle the memoised path is
// equivalence-tested against). Visits and edge traversals are charged to
// bud; depth overflow and budget exhaustion abort the whole query. The
// returned slices are freshly allocated at exactly the needed size.
//
// With a condensed view (gv.cond != nil) start.node must be an SCC
// representative and the traversal stays on representatives: condensed
// edges carry rep-mapped endpoints, frontier detection reads the
// aggregated member flags, and emitted frontier nodes are representatives
// — whose condensed global spans the driver then expands. Every SCC
// member has the identical local closure, so the result (objects and the
// reachable frontier set) is byte-identical to the uncondensed run; only
// the states visited and edges traversed shrink.
func runPPTA(gv graphView, fields *intstack.Table, start pptaState, cfg Config, bud *Budget, m *Metrics, sc *Scratch) (Summary, error) {
	sc.resetPPTA()
	sc.pushPPTA(start)

	for len(sc.pwork) > 0 {
		cur := sc.pwork[len(sc.pwork)-1]
		sc.pwork = sc.pwork[:len(sc.pwork)-1]
		sc.ppta++
		faultinject.Fire(faultinject.PPTAExpand)

		switch cur.st {
		case S1:
			// Frontier: a global edge flows into cur.node
			// (Algorithm 3, lines 15-16).
			if gv.hasGlobalIn(cur.node) {
				sc.frBuf = append(sc.frBuf, FrontierState{Node: cur.node, Fs: cur.fs, St: cur.st})
			}
			for _, e := range gv.localIn(cur.node) {
				if !bud.Step() {
					return Summary{}, bud.Err()
				}
				sc.edges++
				switch e.Kind {
				case pag.New:
					if emitsObject(cur.fs) {
						sc.objBuf = append(sc.objBuf, e.Src)
					}
					if cur.fs != intstack.Empty {
						// "new new-bar": hop through the object to every
						// variable it is assigned to and flip direction.
						// (⊤ both emits and hops: it simulates the empty
						// stack and every non-empty one at once.)
						for _, e2 := range gv.localOut(e.Src) {
							if e2.Kind == pag.New {
								sc.pushPPTA(pptaState{node: e2.Dst, fs: cur.fs, st: S2})
							}
						}
					}
				case pag.Assign:
					sc.pushPPTA(pptaState{node: e.Src, fs: cur.fs, st: S1})
				case pag.Load:
					fs, err := pushField(fields, cur.fs, e.Label, cfg.MaxFieldDepth)
					if err != nil {
						return Summary{}, err
					}
					sc.pushPPTA(pptaState{node: e.Src, fs: fs, st: S1})
				}
			}

		case S2:
			// Frontier: a global edge flows out of cur.node
			// (Algorithm 3, lines 28-29).
			if gv.hasGlobalOut(cur.node) {
				sc.frBuf = append(sc.frBuf, FrontierState{Node: cur.node, Fs: cur.fs, St: cur.st})
			}
			for _, e := range gv.localOut(cur.node) {
				if !bud.Step() {
					return Summary{}, bud.Err()
				}
				sc.edges++
				switch e.Kind {
				case pag.Assign:
					sc.pushPPTA(pptaState{node: e.Dst, fs: cur.fs, st: S2})
				case pag.Load:
					if fs, ok := matchField(fields, cur.fs, e.Label); ok {
						sc.pushPPTA(pptaState{node: e.Dst, fs: fs, st: S2})
					}
				case pag.Store:
					// The held value is written into base.g: search for
					// aliases of the base (alias starts with flowsTo-bar).
					fs, err := pushField(fields, cur.fs, e.Label, cfg.MaxFieldDepth)
					if err != nil {
						return Summary{}, err
					}
					sc.pushPPTA(pptaState{node: e.Dst, fs: fs, st: S1})
				}
			}
			for _, e := range gv.localIn(cur.node) {
				if e.Kind != pag.Store {
					continue
				}
				if !bud.Step() {
					return Summary{}, bud.Err()
				}
				sc.edges++
				// cur.node aliases the base of the pending load: the
				// loaded value came from the stored source.
				if fs, ok := matchField(fields, cur.fs, e.Label); ok {
					sc.pushPPTA(pptaState{node: e.Src, fs: fs, st: S1})
				}
			}
		}
	}

	// Materialise the exactly-sized result; the caller owns it.
	var res Summary
	if len(sc.objBuf) > 0 {
		res.Objects = append(make([]pag.NodeID, 0, len(sc.objBuf)), sc.objBuf...)
	}
	if len(sc.frBuf) > 0 {
		res.Frontier = append(make([]FrontierState, 0, len(sc.frBuf)), sc.frBuf...)
	}
	return res, nil
}

// memoExpand discovers state s: it charges and records s's outgoing local
// transitions into the successor arena, collects its own contributions
// (objects emitted at s, the frontier flag), and registers the new state
// record. The caller decides whether to descend (expanded states) — splice
// records never come through here.
func (sc *Scratch) memoExpand(gv graphView, fields *intstack.Table, s pptaState, cfg Config, bud *Budget) (int32, error) {
	succOff := int32(len(sc.msucc))
	ownOff := int32(len(sc.mOwnObj))
	frontier := false
	sc.ppta++
	faultinject.Fire(faultinject.PPTAExpand)

	switch s.st {
	case S1:
		frontier = gv.hasGlobalIn(s.node)
		for _, e := range gv.localIn(s.node) {
			if !bud.Step() {
				return 0, bud.Err()
			}
			sc.edges++
			switch e.Kind {
			case pag.New:
				if emitsObject(s.fs) {
					sc.mOwnObj = append(sc.mOwnObj, e.Src)
				}
				if s.fs != intstack.Empty {
					// ⊤ both emits and hops, like the flat path.
					for _, e2 := range gv.localOut(e.Src) {
						if e2.Kind == pag.New {
							sc.msucc = append(sc.msucc, pptaState{node: e2.Dst, fs: s.fs, st: S2})
						}
					}
				}
			case pag.Assign:
				sc.msucc = append(sc.msucc, pptaState{node: e.Src, fs: s.fs, st: S1})
			case pag.Load:
				fs, err := pushField(fields, s.fs, e.Label, cfg.MaxFieldDepth)
				if err != nil {
					return 0, err
				}
				sc.msucc = append(sc.msucc, pptaState{node: e.Src, fs: fs, st: S1})
			}
		}

	case S2:
		frontier = gv.hasGlobalOut(s.node)
		for _, e := range gv.localOut(s.node) {
			if !bud.Step() {
				return 0, bud.Err()
			}
			sc.edges++
			switch e.Kind {
			case pag.Assign:
				sc.msucc = append(sc.msucc, pptaState{node: e.Dst, fs: s.fs, st: S2})
			case pag.Load:
				if fs, ok := matchField(fields, s.fs, e.Label); ok {
					sc.msucc = append(sc.msucc, pptaState{node: e.Dst, fs: fs, st: S2})
				}
			case pag.Store:
				fs, err := pushField(fields, s.fs, e.Label, cfg.MaxFieldDepth)
				if err != nil {
					return 0, err
				}
				sc.msucc = append(sc.msucc, pptaState{node: e.Dst, fs: fs, st: S1})
			}
		}
		for _, e := range gv.localIn(s.node) {
			if e.Kind != pag.Store {
				continue
			}
			if !bud.Step() {
				return 0, bud.Err()
			}
			sc.edges++
			if fs, ok := matchField(fields, s.fs, e.Label); ok {
				sc.msucc = append(sc.msucc, pptaState{node: e.Src, fs: fs, st: S1})
			}
		}
	}

	idx := int32(len(sc.mstates))
	sc.mstates = append(sc.mstates, memoState{
		st:       s,
		low:      idx,
		result:   -1,
		succOff:  succOff,
		succLen:  int32(len(sc.msucc)) - succOff,
		ownOff:   ownOff,
		ownLen:   int32(len(sc.mOwnObj)) - ownOff,
		frontier: frontier,
	})
	sc.mseen.put(pkey(s), idx)
	return idx, nil
}

// completeSCC finalises the strongly-connected component rooted at state
// root: it pops the members off the Tarjan stack, unions their own
// contributions with the results of every completed successor (intra-SCC
// edges resolve to open states and are skipped — their contribution is the
// union being built), records the deduplicated closure as a new result,
// and queues the write-back entries permitted by the heuristic. At this
// point every extra-SCC successor has a completed result, so the recorded
// closure is exact — the soundness condition for caching it.
func (sc *Scratch) completeSCC(root int32, fields *intstack.Table) {
	mstart := len(sc.mtstack)
	for {
		mstart--
		if sc.mtstack[mstart] == root {
			break
		}
	}
	members := sc.mtstack[mstart:]

	sc.mObjSeen.reset()
	sc.mFrSeen.reset()
	sc.mResSeen.reset()
	objOff := int32(len(sc.mResObj))
	frOff := int32(len(sc.mResFr))

	for _, mi := range members {
		ms := sc.mstates[mi]
		for _, o := range sc.mOwnObj[ms.ownOff : ms.ownOff+ms.ownLen] {
			if sc.mObjSeen.visit(uint64(uint32(o))) {
				sc.mResObj = append(sc.mResObj, o)
			}
		}
		if ms.frontier {
			if sc.mFrSeen.visit(pkey(ms.st)) {
				sc.mResFr = append(sc.mResFr, FrontierState{Node: ms.st.node, Fs: ms.st.fs, St: ms.st.st})
			}
		}
		for _, t := range sc.msucc[ms.succOff : ms.succOff+ms.succLen] {
			idx, ok := sc.mseen.get(pkey(t))
			if !ok {
				continue // unreachable: every iterated successor was resolved
			}
			r := sc.mstates[idx].result
			if r < 0 || !sc.mResSeen.visit(uint64(uint32(r))) {
				continue // intra-SCC edge, or child already unioned
			}
			// Capture the child's views before appending to the arenas:
			// growth may move the backing array, but captured slices keep
			// reading the old one.
			cobjs, cfrs := sc.resultViews(r)
			for _, o := range cobjs {
				if sc.mObjSeen.visit(uint64(uint32(o))) {
					sc.mResObj = append(sc.mResObj, o)
				}
			}
			for _, f := range cfrs {
				if sc.mFrSeen.visit(fkey(f)) {
					sc.mResFr = append(sc.mResFr, f)
				}
			}
		}
	}

	ridx := int32(len(sc.mres))
	sc.mres = append(sc.mres, memoResult{
		objOff: objOff, objLen: int32(len(sc.mResObj)) - objOff,
		frOff: frOff, frLen: int32(len(sc.mResFr)) - frOff,
	})
	for _, mi := range members {
		sc.mstates[mi].result = ridx
	}
	sc.mtstack = sc.mtstack[:mstart]

	// Queue write-backs: the start state (index 0) unconditionally — that
	// is the entry the driver re-probes, and the pre-memoisation engine
	// cached it too — and intermediate states subject to the memory
	// heuristic (shallow field stacks only, bounded count per run).
	// Nothing is materialised here: commitWriteBacks copies each distinct
	// result once, only if the whole traversal succeeds.
	for _, mi := range members {
		if mi != 0 {
			if len(sc.pendKeys) >= maxWriteBacks ||
				fields.Depth(sc.mstates[mi].st.fs) > writeBackDepth {
				continue
			}
		}
		sc.pendKeys = append(sc.pendKeys, sc.mstates[mi].st)
		sc.pendRIdx = append(sc.pendRIdx, ridx)
	}
}

// runPPTAMemo computes DSPOINTSTO(start) as a memoised closure over the
// PPTA state graph (see the file comment): cache splice-in on the way
// down, per-SCC write-back on the way up. cache is the engine's view of
// its summary tier (probed read-only here; the queued write-backs in sc.pendKeys/
// pendRIdx are committed by the caller only after this returns nil). The
// returned Summary views the Scratch arenas and is valid until the next
// Summarize call of the same query — the driver's documented contract.
//
// On error (budget/depth) the pending write-backs are discarded: a partial
// traversal proves nothing about any state's complete closure.
func runPPTAMemo(gv graphView, fields *intstack.Table, cache *summaryView, start pptaState, cfg Config, bud *Budget, sc *Scratch) (Summary, error) {
	sc.resetMemo()
	rootIdx, err := sc.memoExpand(gv, fields, start, cfg, bud)
	if err != nil {
		sc.discardPending()
		sc.dropMemoRefs()
		return Summary{}, err
	}
	sc.mframes = append(sc.mframes, memoFrame{idx: rootIdx})
	sc.mtstack = append(sc.mtstack, rootIdx)

	for len(sc.mframes) > 0 {
		fi := len(sc.mframes) - 1
		cur := sc.mframes[fi].idx
		pos := sc.mframes[fi].pos

		if pos < sc.mstates[cur].succLen {
			sc.mframes[fi].pos++
			t := sc.msucc[sc.mstates[cur].succOff+pos]
			k := pkey(t)
			if idx, ok := sc.mseen.get(k); ok {
				// Known state: open ⇒ Tarjan lowlink over its discovery
				// number; completed ⇒ nothing to do until completion-time
				// union reads its result.
				if sc.mstates[idx].result < 0 && idx < sc.mstates[cur].low {
					sc.mstates[cur].low = idx
				}
				continue
			}
			// Splice-in: a cached complete closure substitutes for the
			// whole sub-traversal. The record is born completed.
			if r, ok := cache.get(t); ok {
				ridx := int32(len(sc.mres))
				sc.mres = append(sc.mres, memoResult{cached: r, spliced: true})
				idx := int32(len(sc.mstates))
				sc.mstates = append(sc.mstates, memoState{st: t, low: idx, result: ridx})
				sc.mseen.put(k, idx)
				sc.spliced++
				continue
			}
			idx, err := sc.memoExpand(gv, fields, t, cfg, bud)
			if err != nil {
				sc.discardPending()
				sc.dropMemoRefs()
				return Summary{}, err
			}
			sc.mframes = append(sc.mframes, memoFrame{idx: idx})
			sc.mtstack = append(sc.mtstack, idx)
			continue
		}

		// All successors processed: complete the SCC if cur is its root,
		// then fold cur's lowlink into the DFS parent.
		sc.mframes = sc.mframes[:fi]
		low := sc.mstates[cur].low
		if low == cur {
			sc.completeSCC(cur, fields)
		}
		if fi > 0 {
			p := sc.mframes[fi-1].idx
			if low < sc.mstates[p].low {
				sc.mstates[p].low = low
			}
		}
	}

	objs, frs := sc.resultViews(sc.mstates[rootIdx].result)
	sc.dropMemoRefs()
	// The views are consumed by the driver before the next PPTA run;
	//lint:allow scratchpin summary views are copied before caching (write-back files them in the arenas)
	return Summary{Objects: objs, Frontier: frs}, nil
}
