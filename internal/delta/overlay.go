package delta

import (
	"fmt"
	"iter"
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
//     the freeze-time condensation. A rebuilt representative whose
//     condensed spans come out equal, edge for edge and in order, to its
//     base-view spans (most of them: a singleton among singletons) stores
//     no copy; its patch-table entry says to read the base view instead.
//
// An overlay holds only its edits: the patch tables and patches, the
// added node, method and call-site records (resolved through
// Overlay.Node / MethodInfo / CallSiteInfo), each method's added nodes and
// the set of dissolved SCCs. What derives from the base graph alone — the
// method→node index and the SCC member lists — is a Base, built once per
// frozen graph and shared read-only by every overlay on it. The base
// graph is never written, so several engines can evolve independent
// overlays over one shared frozen base, and dropping an overlay rolls its
// epochs back for free.
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

// Base is the read-only index of one frozen graph that every overlay on
// it shares: the method→node index over the base nodes and the member
// lists of the nontrivial SCCs. Building it is the delta subsystem's only
// O(n) pass; a server pays it once per graph, not once per session.
type Base struct {
	g *pag.Graph

	// methodStart/methodNodes index the base nodes by method in CSR form:
	// method m's nodes are methodNodes[methodStart[m]:methodStart[m+1]],
	// ascending.
	methodStart []int32
	methodNodes []pag.NodeID

	// groups maps each nontrivial SCC's representative to its sorted
	// members (representative included); nil on a trivial condensation.
	groups map[pag.NodeID][]pag.NodeID
}

// NewBase indexes a frozen graph for the overlays built on it.
func NewBase(g *pag.Graph) (*Base, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("delta: NewBase: %w", pag.ErrNotFrozen)
	}
	b := &Base{g: g}
	nodes, methods := g.NumNodes(), g.NumMethods()
	b.methodStart = make([]int32, methods+1)
	for n := 0; n < nodes; n++ {
		if m := g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
			b.methodStart[m+1]++
		}
	}
	for m := 0; m < methods; m++ {
		b.methodStart[m+1] += b.methodStart[m]
	}
	b.methodNodes = make([]pag.NodeID, b.methodStart[methods])
	fill := slices.Clone(b.methodStart[:methods])
	for n := 0; n < nodes; n++ {
		if m := g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
			b.methodNodes[fill[m]] = pag.NodeID(n)
			fill[m]++
		}
	}
	if cond := g.Condensation(); !cond.Trivial() {
		// The representative is its SCC's smallest member, so ascending
		// IDs list every group sorted.
		b.groups = make(map[pag.NodeID][]pag.NodeID)
		for n := 0; n < nodes; n++ {
			if r := cond.Rep(pag.NodeID(n)); r != pag.NodeID(n) {
				if b.groups[r] == nil {
					b.groups[r] = []pag.NodeID{r}
				}
				b.groups[r] = append(b.groups[r], pag.NodeID(n))
			}
		}
	}
	return b, nil
}

// NewOverlay starts an empty overlay (epoch 0) on the base.
func (b *Base) NewOverlay() *Overlay {
	n := b.g.NumNodes()
	cond := b.g.Condensation()
	return &Overlay{
		base:          b,
		g:             b.g,
		cond:          cond,
		trivial:       cond.Trivial(),
		baseNodes:     n,
		baseMethods:   b.g.NumMethods(),
		baseCallSites: b.g.NumCallSites(),
		patchBase:     makeNegative(n),
		patchCond:     makeNegative(n),
		addedOf:       make(map[pag.MethodID][]pag.NodeID),
		dissolved:     make(map[pag.NodeID]bool),
		bytes:         2 * idBytes * int64(n),
	}
}

// Overlay is the epoch-stamped delta view over one frozen Graph. It is
// not safe for concurrent mutation: Apply and Compact require the same
// quiescence as every other engine mutator (no queries in flight).
// Concurrent reads between epochs are safe.
type Overlay struct {
	base    *Base
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
	// the node reads the base (respectively freeze-time condensed) spans,
	// and reuseBase in patchCond means the node's condensed spans are
	// exactly its base-view spans, so it reads those. freeCond lists the
	// condAdj slots that such a reuse released, for the next real patch.
	patchBase []int32
	patchCond []int32
	baseAdj   []patchAdj
	condAdj   []patchAdj
	freeCond  []int32

	// addedOf lists each method's delta-added nodes in ID order (its base
	// nodes are in the shared Base); dissolved holds the representatives
	// of the SCCs the overlay dissolved into singletons. Together with the
	// base they give the repaired representative function (Rep).
	addedOf   map[pag.MethodID][]pag.NodeID
	dissolved map[pag.NodeID]bool

	overlayEdges  int   // out-direction edge records across baseAdj
	droppedEdges  int   // cumulative
	dissolvedSCCs int   // cumulative
	rebuiltReps   int   // cumulative
	bytes         int64 // what the overlay holds itself; see Stats.Bytes

	// buf is the edge scratch the rebuilds of one commit share; commit
	// drops it at its end.
	buf []pag.Edge

	// committing is held across Apply's commit phase: true means an epoch
	// is (or was, if an abort escaped) mid-installation and the overlay's
	// invariants cannot be trusted. See Broken.
	committing bool
}

// reuseBase marks a patchCond entry whose condensed spans equal the
// node's base-view spans, edge for edge and in order.
const reuseBase = -2

// patchAdj is one patched node's replacement adjacency: its out edges
// then its in edges in one exactly-sized slice, each half partitioned
// local-first — the same contract as a CSR span. The offsets index
// edges: local out [0, outSplit), global out [outSplit, outEnd), local in
// [outEnd, inSplit), global in [inSplit, len).
type patchAdj struct {
	edges                     []pag.Edge
	outSplit, outEnd, inSplit int32
}

func (a *patchAdj) localOut() []pag.Edge  { return clampSpan(a.edges, 0, a.outSplit) }
func (a *patchAdj) globalOut() []pag.Edge { return clampSpan(a.edges, a.outSplit, a.outEnd) }
func (a *patchAdj) localIn() []pag.Edge   { return clampSpan(a.edges, a.outEnd, a.inSplit) }
func (a *patchAdj) globalIn() []pag.Edge {
	return clampSpan(a.edges, a.inSplit, int32(len(a.edges)))
}

// Patched entries derive flags from span emptiness, which is exact for
// the current edge set (drops included).
func (a *patchAdj) hasGlobalIn() bool   { return int(a.inSplit) < len(a.edges) }
func (a *patchAdj) hasGlobalOut() bool  { return a.outSplit < a.outEnd }
func (a *patchAdj) hasLocalEdges() bool { return a.outSplit > 0 || a.inSplit > a.outEnd }

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

// MethodNodes returns method m's nodes: its base nodes from the shared
// index and its delta-added ones, each ascending (read-only; both nil for
// an ID that names no method, NoMethod included — the index does not
// cover global nodes).
func (o *Overlay) MethodNodes(m pag.MethodID) (base, added []pag.NodeID) {
	if m >= 0 && int(m) < o.baseMethods {
		base = o.base.methodNodes[o.base.methodStart[m]:o.base.methodStart[m+1]]
	}
	return base, o.addedOf[m]
}

// nodesOf yields method m's nodes in MethodNodes order.
func (o *Overlay) nodesOf(m pag.MethodID) iter.Seq[pag.NodeID] {
	base, added := o.MethodNodes(m)
	return func(yield func(pag.NodeID) bool) {
		for _, ns := range [2][]pag.NodeID{base, added} {
			for _, n := range ns {
				if !yield(n) {
					return
				}
			}
		}
	}
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
		return o.baseAdj[p].localOut()
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.LocalOut(n)
}

func (o *Overlay) baseGlobalOut(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].globalOut()
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.GlobalOut(n)
}

func (o *Overlay) baseLocalIn(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].localIn()
	}
	if int(n) >= o.baseNodes {
		return nil
	}
	return o.g.LocalIn(n)
}

func (o *Overlay) baseGlobalIn(n pag.NodeID) []pag.Edge {
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].globalIn()
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
			return o.condAdj[p].localOut()
		} else if p == -1 {
			return o.cond.LocalOut(n)
		}
	}
	return o.baseLocalOut(n)
}

// GlobalOut returns n's outgoing global edges under the requested view.
func (o *Overlay) GlobalOut(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].globalOut()
		} else if p == -1 {
			return o.cond.GlobalOut(n)
		}
	}
	return o.baseGlobalOut(n)
}

// LocalIn returns n's incoming local edges under the requested view.
func (o *Overlay) LocalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].localIn()
		} else if p == -1 {
			return o.cond.LocalIn(n)
		}
	}
	return o.baseLocalIn(n)
}

// GlobalIn returns n's incoming global edges under the requested view.
func (o *Overlay) GlobalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].globalIn()
		} else if p == -1 {
			return o.cond.GlobalIn(n)
		}
	}
	return o.baseGlobalIn(n)
}

// HasGlobalIn reports the PPTA S1 frontier condition under the view.
func (o *Overlay) HasGlobalIn(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].hasGlobalIn()
		} else if p == -1 {
			return o.cond.HasGlobalIn(n)
		}
	}
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].hasGlobalIn()
	}
	return int(n) < o.baseNodes && o.g.HasGlobalIn(n)
}

// HasGlobalOut reports the PPTA S2 frontier condition under the view.
func (o *Overlay) HasGlobalOut(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].hasGlobalOut()
		} else if p == -1 {
			return o.cond.HasGlobalOut(n)
		}
	}
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].hasGlobalOut()
	}
	return int(n) < o.baseNodes && o.g.HasGlobalOut(n)
}

// HasLocalEdges reports whether n touches any local edge under the view.
func (o *Overlay) HasLocalEdges(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.patchCond[n]; p >= 0 {
			return o.condAdj[p].hasLocalEdges()
		} else if p == -1 {
			return o.cond.HasLocalEdges(n)
		}
	}
	if p := o.patchBase[n]; p >= 0 {
		return o.baseAdj[p].hasLocalEdges()
	}
	return int(n) < o.baseNodes && o.g.HasLocalEdges(n)
}

// Rep maps n to its representative under the repaired condensation:
// identity for added nodes and for the members of dissolved SCCs, the
// freeze-time representative otherwise.
func (o *Overlay) Rep(n pag.NodeID) pag.NodeID {
	if o.trivial || int(n) >= o.baseNodes {
		return n
	}
	if r := o.cond.Rep(n); r != n && !o.dissolved[r] {
		return r
	}
	return n
}

// group returns the sorted members of r's surviving nontrivial SCC
// (representative included), or nil when r is a singleton.
func (o *Overlay) group(r pag.NodeID) []pag.NodeID {
	if o.dissolved[r] {
		return nil
	}
	return o.base.groups[r]
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
