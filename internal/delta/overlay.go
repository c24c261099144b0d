package delta

import (
	"fmt"
	"slices"

	"dynsum/internal/pag"
)

// This file implements the epoch overlay itself: the mutable view a frozen
// PAG evolves through.
//
// Representation. The base graph's CSR arrays are never touched. A node
// whose adjacency an epoch changes — an endpoint of an added or dropped
// edge, or a node added by the epoch — becomes *patched*: it gets a
// per-node replacement adjacency (its current edges minus drops plus adds,
// still partitioned local-first/global-last), and a dense patch table maps
// node IDs to these entries with -1 for the untouched majority. An
// adjacency read is therefore one array load and one predictable branch
// away from the base layout — the same cost shape as the condensation
// overlay, which is what lets core's graphView resolve both without the
// engines changing.
//
// Two views are maintained, mirroring the two adjacency modes the engines
// run in:
//
//   - the base view: true node endpoints, used when condensation is
//     disabled;
//   - the condensed view: endpoints mapped through the *repaired*
//     representative function. Methods whose local edges change have their
//     assign SCCs dissolved into singletons (a changed body voids the
//     cycle proof), while untouched SCCs keep their representatives — and
//     therefore their representative-keyed shared summaries. Repair is
//     local: only the dissolved methods' nodes, the endpoints of changed
//     edges, and the representatives global-edge-adjacent to dissolved
//     members get rebuilt condensed spans; everything else keeps reading
//     the freeze-time condensation.
//
// The overlay is fully self-contained: added node, method and call-site
// records live in overlay-side tables (resolved through Overlay.Node /
// MethodInfo / CallSiteInfo) and the base graph is never written. Several
// engines can therefore evolve independent overlays over one shared frozen
// base, and dropping an overlay rolls its epochs back for free.
//
// Soundness of the invalidation contract (the TouchedMethods an Apply
// returns): a cached PPTA summary is the closure of one state over local
// edges, which never leave the state's method, plus the global-edge flags
// of the visited nodes, which gate frontier membership. A summary can
// therefore only be invalidated by (a) a local-edge change in its method
// or (b) a global-edge flag flipping on one of its method's nodes — both
// are reported as touched. Everything else a wave does (new methods, new
// global edges between already-flagged nodes) leaves every cached closure
// exact, because the driver expands frontier states over the live global
// spans on every query. DESIGN.md §10 spells the argument out.

// DefaultCompactFraction is the overlay-size trigger engines use for
// automatic compaction: once the overlay holds more than this fraction of
// the base graph's edge records, the indirection (and the dissolved
// condensation) has eaten enough of the frozen layout's advantage that a
// full re-freeze pays for itself.
const DefaultCompactFraction = 0.5

// Overlay is the epoch-stamped delta view over one frozen Graph. It is
// not safe for concurrent mutation: Apply and Compact require the same
// quiescence as every other engine mutator (no queries in flight).
// Concurrent reads between epochs are safe.
type Overlay struct {
	g       *pag.Graph
	cond    *pag.Condensation
	trivial bool // base condensation has no nontrivial SCC: the views coincide

	baseNodes     int
	baseMethods   int
	baseCallSites int
	epoch         int

	addedNodes     []pag.Node
	addedMethods   []pag.Method
	addedCallSites []pag.CallSite

	// patchBase/patchCond index the per-view patched adjacency; -1 means
	// the node reads the base (respectively freeze-time condensed) spans.
	patchBase []int32
	patchCond []int32
	baseAdj   []patchAdj
	condAdj   []patchAdj

	// rep is the repaired representative array (condensed view), covering
	// every node; nil until the first epoch on a nontrivially-condensed
	// base (reads fall through to the freeze-time condensation).
	rep []pag.NodeID
	// groups holds the surviving nontrivial SCCs: representative → sorted
	// members (representative included). Dissolved groups are removed.
	groups map[pag.NodeID][]pag.NodeID

	// methodNodes indexes every method's nodes (built on first Apply,
	// extended incrementally); the unit of redefinition and invalidation.
	methodNodes [][]pag.NodeID

	// methodNbrs is the reverse-dependency sketch: for each method, the
	// set of methods sharing a global edge with it. It bounds the set of
	// methods that could in principle depend on a touched method — the
	// ApplyStats report invalidated-vs-dependent against it, making the
	// "no cascade needed" argument measurable.
	methodNbrs map[pag.MethodID]map[pag.MethodID]bool

	patchedMethods map[pag.MethodID]bool

	overlayEdges  int // out-direction edge records across baseAdj
	droppedEdges  int // cumulative
	dissolvedSCCs int // cumulative
	rebuiltReps   int // cumulative

	// committing is held across Apply's commit phase: true means an epoch
	// is (or was, if an abort escaped) mid-installation and the overlay's
	// invariants cannot be trusted. See Broken.
	committing bool
}

// patchAdj is one patched node's replacement adjacency: full out/in edge
// lists partitioned local-first, with the split recorded — the same
// contract as a CSR span.
type patchAdj struct {
	out, in           []pag.Edge
	outSplit, inSplit int32
}

// NewOverlay starts an empty overlay (epoch 0) over a frozen graph.
func NewOverlay(g *pag.Graph) (*Overlay, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("delta: overlay: %w", pag.ErrNotFrozen)
	}
	cond := g.Condensation()
	return &Overlay{
		g:              g,
		cond:           cond,
		trivial:        cond.Trivial(),
		baseNodes:      g.NumNodes(),
		baseMethods:    g.NumMethods(),
		baseCallSites:  g.NumCallSites(),
		patchBase:      makeNegative(g.NumNodes()),
		patchCond:      makeNegative(g.NumNodes()),
		patchedMethods: make(map[pag.MethodID]bool),
	}, nil
}

func makeNegative(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Graph returns the frozen base graph.
func (o *Overlay) Graph() *pag.Graph { return o.g }

// Epoch returns the number of applied epochs.
func (o *Overlay) Epoch() int { return o.epoch }

// NewLog starts a change log positioned at the overlay's current counts.
func (o *Overlay) NewLog() *Log {
	return NewLog(o.NumMethods(), o.NumNodes(), o.NumCallSites())
}

// NumNodes returns the total node count, added nodes included.
func (o *Overlay) NumNodes() int { return o.baseNodes + len(o.addedNodes) }

// NumMethods returns the total method count, added methods included.
func (o *Overlay) NumMethods() int { return o.baseMethods + len(o.addedMethods) }

// NumCallSites returns the total call-site count, added sites included.
func (o *Overlay) NumCallSites() int { return o.baseCallSites + len(o.addedCallSites) }

// MethodNodes returns method m's nodes, delta-added ones included, from
// the overlay's method index (read-only; nil for an ID that names no
// method, NoMethod included — the index does not cover global nodes). ok
// is false until the first Apply has built the index.
func (o *Overlay) MethodNodes(m pag.MethodID) (nodes []pag.NodeID, ok bool) {
	if o.methodNodes == nil {
		return nil, false
	}
	if m < 0 || int(m) >= len(o.methodNodes) {
		return nil, true
	}
	return o.methodNodes[m], true
}

// MethodInfo returns method metadata, resolving added methods from the
// overlay.
func (o *Overlay) MethodInfo(m pag.MethodID) pag.Method {
	if int(m) < o.baseMethods {
		return o.g.MethodInfo(m)
	}
	return o.addedMethods[int(m)-o.baseMethods]
}

// CallSiteInfo returns call-site metadata, resolving added sites from the
// overlay.
func (o *Overlay) CallSiteInfo(cs pag.CallSiteID) pag.CallSite {
	if int(cs) < o.baseCallSites {
		return o.g.CallSiteInfo(cs)
	}
	return o.addedCallSites[int(cs)-o.baseCallSites]
}

// Node returns node metadata, resolving added nodes from the overlay.
func (o *Overlay) Node(n pag.NodeID) pag.Node {
	if int(n) < o.baseNodes {
		return o.g.Node(n)
	}
	return o.addedNodes[int(n)-o.baseNodes]
}

// NodeString renders n like Graph.NodeString, added nodes included.
func (o *Overlay) NodeString(n pag.NodeID) string {
	if int(n) < o.baseNodes {
		return o.g.NodeString(n)
	}
	nd := o.addedNodes[int(n)-o.baseNodes]
	if nd.Method != pag.NoMethod {
		return o.MethodInfo(nd.Method).Name + "." + nd.Name
	}
	return nd.Name
}

// IsNullObject reports whether n is a null object, added nodes included.
func (o *Overlay) IsNullObject(n pag.NodeID) bool {
	if int(n) < o.baseNodes {
		return o.g.IsNullObject(n)
	}
	nd := o.addedNodes[int(n)-o.baseNodes]
	nc := o.g.NullClassID()
	return nd.Kind == pag.Object && nc != pag.NoClass && nd.Class == nc
}

// clampSpan returns edges[i:j] capacity-clamped, nil when empty —
// matching the base accessors' read-only span contract.
func clampSpan(edges []pag.Edge, i, j int32) []pag.Edge {
	if i == j {
		return nil
	}
	return edges[i:j:j]
}

// --- base view ---

// The base accessors guard added-node IDs explicitly: an added node is
// patched by the epoch that introduces it, but mid-Apply (dedup, drop
// computation) and for edge-less additions the patch entry may not exist
// yet, and the base graph's arrays do not cover the ID.

func (o *Overlay) baseLocalOut(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return clampSpan(a.out, 0, a.outSplit)
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.LocalOut(n)
}

func (o *Overlay) baseGlobalOut(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return clampSpan(a.out, a.outSplit, int32(len(a.out)))
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.GlobalOut(n)
}

func (o *Overlay) baseLocalIn(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return clampSpan(a.in, 0, a.inSplit)
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.LocalIn(n)
}

func (o *Overlay) baseGlobalIn(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return clampSpan(a.in, a.inSplit, int32(len(a.in)))
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.GlobalIn(n)
}

// --- public view accessors; condensed selects the repaired condensation ---

// LocalOut returns n's outgoing local edges under the requested view.
func (o *Overlay) LocalOut(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return clampSpan(a.out, 0, a.outSplit)
		}
		return o.cond.LocalOut(n)
	}
	return o.baseLocalOut(n)
}

// GlobalOut returns n's outgoing global edges under the requested view.
func (o *Overlay) GlobalOut(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return clampSpan(a.out, a.outSplit, int32(len(a.out)))
		}
		return o.cond.GlobalOut(n)
	}
	return o.baseGlobalOut(n)
}

// LocalIn returns n's incoming local edges under the requested view.
func (o *Overlay) LocalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return clampSpan(a.in, 0, a.inSplit)
		}
		return o.cond.LocalIn(n)
	}
	return o.baseLocalIn(n)
}

// GlobalIn returns n's incoming global edges under the requested view.
func (o *Overlay) GlobalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return clampSpan(a.in, a.inSplit, int32(len(a.in)))
		}
		return o.cond.GlobalIn(n)
	}
	return o.baseGlobalIn(n)
}

// HasGlobalIn reports the PPTA S1 frontier condition under the view.
// Patched entries derive flags from span emptiness, which is exact for
// the current edge set (drops included).
func (o *Overlay) HasGlobalIn(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return int(a.inSplit) < len(a.in)
		}
		return o.cond.HasGlobalIn(n)
	}
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return int(a.inSplit) < len(a.in)
	}
	return int(n) < o.baseNodes && o.g.HasGlobalIn(n)
}

// HasGlobalOut reports the PPTA S2 frontier condition under the view.
func (o *Overlay) HasGlobalOut(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return int(a.outSplit) < len(a.out)
		}
		return o.cond.HasGlobalOut(n)
	}
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return int(a.outSplit) < len(a.out)
	}
	return int(n) < o.baseNodes && o.g.HasGlobalOut(n)
}

// HasLocalEdges reports whether n touches any local edge under the view.
func (o *Overlay) HasLocalEdges(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			a := &o.condAdj[p]
			return a.outSplit > 0 || a.inSplit > 0
		}
		return o.cond.HasLocalEdges(n)
	}
	if p := o.patchBase[n]; p >= 0 {
		a := &o.baseAdj[p]
		return a.outSplit > 0 || a.inSplit > 0
	}
	return int(n) < o.baseNodes && o.g.HasLocalEdges(n)
}

// Rep maps n to its representative under the repaired condensation
// (identity for dissolved members and added nodes).
func (o *Overlay) Rep(n pag.NodeID) pag.NodeID {
	if o.rep != nil {
		return o.rep[n]
	}
	if o.trivial || int(n) >= o.baseNodes {
		return n
	}
	return o.cond.Rep(n)
}

// nodeMethod returns the enclosing method of n (NoMethod for globals).
func (o *Overlay) nodeMethod(n pag.NodeID) pag.MethodID { return o.Node(n).Method }

// ownerMethod attributes an edge to the method whose body contains the
// statement: local edges to their (common) endpoint method, entry edges
// to the caller (the actual's method), exit edges to the caller (the
// lhs's method), assignglobal edges to the non-global side. Edges between
// two globals belong to no method and are never dropped by redefinition.
func (o *Overlay) ownerMethod(e pag.Edge) pag.MethodID {
	switch e.Kind {
	case pag.Entry:
		return o.nodeMethod(e.Src)
	case pag.Exit:
		return o.nodeMethod(e.Dst)
	case pag.AssignGlobal:
		if m := o.nodeMethod(e.Src); m != pag.NoMethod {
			return m
		}
		return o.nodeMethod(e.Dst)
	default: // new/assign/load/store: both endpoints share the method
		return o.nodeMethod(e.Src)
	}
}

// hasEdgeBase reports whether e exists in the current base view.
func (o *Overlay) hasEdgeBase(e pag.Edge) bool {
	sp := o.baseGlobalOut(e.Src)
	if e.Kind.IsLocal() {
		sp = o.baseLocalOut(e.Src)
	}
	for _, have := range sp {
		if have == e {
			return true
		}
	}
	return false
}

// ensureIndexes lazily builds the O(n) structures the first Apply needs:
// the method→nodes index, the surviving-SCC group table and repaired rep
// array (nontrivial condensations only), and the reverse-dependency
// sketch.
func (o *Overlay) ensureIndexes() {
	if o.methodNodes == nil {
		o.methodNodes = make([][]pag.NodeID, o.NumMethods())
		for n := 0; n < o.baseNodes; n++ {
			if m := o.g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
				o.methodNodes[m] = append(o.methodNodes[m], pag.NodeID(n))
			}
		}
	}
	if !o.trivial && o.rep == nil {
		o.rep = make([]pag.NodeID, o.baseNodes)
		o.groups = make(map[pag.NodeID][]pag.NodeID)
		for n := 0; n < o.baseNodes; n++ {
			r := o.cond.Rep(pag.NodeID(n))
			o.rep[n] = r
			if r != pag.NodeID(n) {
				o.groups[r] = append(o.groups[r], pag.NodeID(n))
			}
		}
		for r, members := range o.groups {
			members = append(members, r)
			slices.Sort(members)
			o.groups[r] = members
		}
	}
	if o.methodNbrs == nil {
		o.methodNbrs = make(map[pag.MethodID]map[pag.MethodID]bool)
		for n := 0; n < o.baseNodes; n++ {
			ms := o.g.Node(pag.NodeID(n)).Method
			if ms == pag.NoMethod {
				continue
			}
			for _, e := range o.g.GlobalOut(pag.NodeID(n)) {
				if md := o.g.Node(e.Dst).Method; md != pag.NoMethod && md != ms {
					o.linkMethods(ms, md)
				}
			}
		}
	}
}

func (o *Overlay) linkMethods(a, b pag.MethodID) {
	if o.methodNbrs[a] == nil {
		o.methodNbrs[a] = make(map[pag.MethodID]bool, 4)
	}
	if o.methodNbrs[b] == nil {
		o.methodNbrs[b] = make(map[pag.MethodID]bool, 4)
	}
	o.methodNbrs[a][b] = true
	o.methodNbrs[b][a] = true
}
