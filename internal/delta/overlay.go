package delta

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

	"dynsum/internal/pag"
)

// This file implements the epoch overlay itself: the mutable view a frozen
// PAG evolves through.
//
// Representation. The base graph's CSR arrays are never touched. A node
// whose adjacency an epoch changes — an endpoint of an added or dropped
// edge — becomes *patched*: it gets a per-node replacement adjacency (its
// current edges minus drops plus adds, still partitioned
// local-first/global-last). The nodes an epoch adds are laid out as one
// flat CSR block per epoch instead, and move to a per-node patch only if
// a later epoch changes them. A patch index per view marks the patched
// nodes with one bit each and finds a marked node's patch by rank, so an
// adjacency read of an untouched node is one bit test away from the base
// layout — the same cost shape as the condensation overlay, which is
// what lets core's graphView resolve both without the engines changing.
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
	cond := b.g.Condensation()
	return &Overlay{
		base:          b,
		g:             b.g,
		cond:          cond,
		trivial:       cond.Trivial(),
		baseNodes:     b.g.NumNodes(),
		baseMethods:   b.g.NumMethods(),
		baseCallSites: b.g.NumCallSites(),
		addedOf:       make(map[pag.MethodID][]pag.NodeID),
		dissolved:     make(map[pag.NodeID]bool),
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

	// blocks holds each epoch's added nodes as one flat CSR block, in ID
	// order; blockAt[w] is the block holding added node 64w, where the
	// search for the blocks of added nodes 64w..64w+63 starts.
	blocks  []addedBlock
	blockAt []int32

	// baseIdx/condIdx index the per-view patches. A node with no baseIdx
	// entry reads its frozen spans (a base node) or its flat block (an
	// added node). A base node with no condIdx entry reads its
	// freeze-time condensed spans and an added node its base view; the
	// entry reuseBase says the node's condensed spans are exactly its
	// base-view spans, any other entry is a condAdj slot. freeCond lists
	// the condAdj slots that a reuse released, for the next real patch.
	baseIdx  patchIndex
	condIdx  patchIndex
	baseAdj  []patchAdj
	condAdj  []patchAdj
	freeCond []int32

	// addedOf lists each method's delta-added nodes in ID order (its base
	// nodes are in the shared Base); dissolved holds the representatives
	// of the SCCs the overlay dissolved into singletons. Together with the
	// base they give the repaired representative function (Rep).
	addedOf   map[pag.MethodID][]pag.NodeID
	dissolved map[pag.NodeID]bool

	overlayEdges  int   // out-direction edge records across the base view
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

// Index entries that name no patch: noEntry (no entry at all) and
// reuseBase, a condensed entry whose spans equal the node's base-view
// spans, edge for edge and in order.
const (
	noEntry   = -1
	reuseBase = -2
)

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

// patchIndex maps the nodes that have an entry in one view to their
// entries. Bit n of bits marks node n; a marked node's entry is
// slots[rank[n/64] + the marked nodes below n in its word], so an
// unmarked node costs one bit test and a marked one a popcount and two
// loads. update installs a commit's entries in one batch and rebuilds
// rank and slots.
type patchIndex struct {
	bits  []uint64
	rank  []int32 // marked nodes in the words before each word
	slots []int32 // the entries, in node order
}

// indexEntry is one index change: node n's new entry, noEntry to remove
// its mark.
type indexEntry struct {
	n    pag.NodeID
	slot int32
}

// get returns n's entry, noEntry when n is unmarked.
func (x *patchIndex) get(n pag.NodeID) int32 {
	w := int(n >> 6)
	if w >= len(x.bits) {
		return noEntry
	}
	word, bit := x.bits[w], uint64(1)<<(n&63)
	if word&bit == 0 {
		return noEntry
	}
	return x.slots[x.rank[w]+int32(bits.OnesCount64(word&(bit-1)))]
}

// nodes yields the marked nodes in ascending order.
func (x *patchIndex) nodes() iter.Seq[pag.NodeID] {
	return func(yield func(pag.NodeID) bool) {
		for w, word := range x.bits {
			for ; word != 0; word &= word - 1 {
				if !yield(pag.NodeID(w<<6 + bits.TrailingZeros64(word))) {
					return
				}
			}
		}
	}
}

// bytes is what the index holds, by element size.
func (x *patchIndex) bytes() int64 {
	return 8*int64(len(x.bits)) + idBytes*int64(len(x.rank)+len(x.slots))
}

// update installs changes, sorted by node with each node at most once,
// and returns the change in the index's bytes. The bitmap grows only to
// the highest marked node, and rank and slots are rebuilt exactly sized.
func (x *patchIndex) update(changes []indexEntry) int64 {
	if len(changes) == 0 {
		return 0
	}
	before := x.bytes()
	count, words := len(x.slots), len(x.bits)
	for _, c := range changes {
		switch had := x.get(c.n) != noEntry; {
		case c.slot != noEntry && !had:
			count++
			words = max(words, int(c.n>>6)+1)
		case c.slot == noEntry && had:
			count--
		}
	}
	// Merge the old entries, in node order, with the changes.
	slots := make([]int32, 0, count)
	i, k := 0, 0
	emit := func(upto pag.NodeID) {
		for ; i < len(changes) && changes[i].n < upto; i++ {
			if changes[i].slot != noEntry {
				slots = append(slots, changes[i].slot)
			}
		}
	}
	for n := range x.nodes() {
		emit(n)
		if i < len(changes) && changes[i].n == n {
			if changes[i].slot != noEntry {
				slots = append(slots, changes[i].slot)
			}
			i++
		} else {
			slots = append(slots, x.slots[k])
		}
		k++
	}
	emit(math.MaxInt32)
	x.slots = slots

	if words > len(x.bits) {
		grown := make([]uint64, words)
		copy(grown, x.bits)
		x.bits = grown
	}
	for _, c := range changes {
		if bit := uint64(1) << (c.n & 63); c.slot != noEntry {
			x.bits[c.n>>6] |= bit
		} else if int(c.n>>6) < len(x.bits) {
			x.bits[c.n>>6] &^= bit
		}
	}
	if len(x.rank) != len(x.bits) {
		x.rank = make([]int32, len(x.bits))
	}
	r := int32(0)
	for w, word := range x.bits {
		x.rank[w] = r
		r += int32(bits.OnesCount64(word))
	}
	return x.bytes() - before
}

// addedBlock is one epoch's added nodes as a flat CSR block: node
// first+i's out then in edges are edges[off[4i]:off[4i+4]], cut at
// off[4i+1] (local out | global out), off[4i+2] (out | in) and off[4i+3]
// (local in | global in) — a patchAdj's layout, sharing one edge array.
type addedBlock struct {
	first pag.NodeID
	off   []int32 // 4 per node, plus the end
	edges []pag.Edge
}

// addedNode returns the edges of added node n's flat block and n's five
// offsets into them (see addedBlock). The epoch adding n lays its block
// out before anything reads n's adjacency.
func (o *Overlay) addedNode(n pag.NodeID) ([]pag.Edge, *[5]int32) {
	i := int(o.blockAt[(int(n)-o.baseNodes)>>6])
	for i+1 < len(o.blocks) && o.blocks[i+1].first <= n {
		i++
	}
	b := &o.blocks[i]
	j := 4 * int(n-b.first)
	return b.edges, (*[5]int32)(b.off[j : j+5])
}

// Graph returns the frozen base graph.
func (o *Overlay) Graph() *pag.Graph { return o.g }

// Epoch returns the number of applied epochs.
func (o *Overlay) Epoch() int { return o.epoch }

// NewLog starts a change log positioned at the overlay's current counts.
func (o *Overlay) NewLog() *Log {
	return NewLog(o.NumMethods(), o.NumNodes(), o.NumCallSites())
}

// NumClasses returns the base graph's class count: epochs add no classes.
func (o *Overlay) NumClasses() int { return o.g.NumClasses() }

// ClassInfo returns the base graph's metadata of class c.
func (o *Overlay) ClassInfo(c pag.ClassID) pag.Class { return o.g.ClassInfo(c) }

// NumFields returns the base graph's field count: epochs add no fields.
func (o *Overlay) NumFields() int { return o.g.NumFields() }

// FieldName returns the base graph's name of field f.
func (o *Overlay) FieldName(f pag.FieldID) string { return o.g.FieldName(f) }

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

// A node's base-view spans come from its per-node patch when the index
// has one, else from its epoch's flat block (an added node) or the
// frozen CSR arrays (a base node).

func (o *Overlay) baseLocalOut(n pag.NodeID) []pag.Edge {
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].localOut()
	} else if int(n) >= o.baseNodes {
		es, off := o.addedNode(n)
		return clampSpan(es, off[0], off[1])
	}
	return o.g.LocalOut(n)
}

func (o *Overlay) baseGlobalOut(n pag.NodeID) []pag.Edge {
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].globalOut()
	} else if int(n) >= o.baseNodes {
		es, off := o.addedNode(n)
		return clampSpan(es, off[1], off[2])
	}
	return o.g.GlobalOut(n)
}

func (o *Overlay) baseLocalIn(n pag.NodeID) []pag.Edge {
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].localIn()
	} else if int(n) >= o.baseNodes {
		es, off := o.addedNode(n)
		return clampSpan(es, off[2], off[3])
	}
	return o.g.LocalIn(n)
}

func (o *Overlay) baseGlobalIn(n pag.NodeID) []pag.Edge {
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].globalIn()
	} else if int(n) >= o.baseNodes {
		es, off := o.addedNode(n)
		return clampSpan(es, off[3], off[4])
	}
	return o.g.GlobalIn(n)
}

// condSlot returns n's condensed entry: a condAdj slot, reuseBase, or
// noEntry for a base node that reads its freeze-time condensed spans. An
// added node without an entry reuses its base view.
func (o *Overlay) condSlot(n pag.NodeID) int32 {
	if p := o.condIdx.get(n); p != noEntry || int(n) < o.baseNodes {
		return p
	}
	return reuseBase
}

// --- public view accessors; condensed selects the repaired condensation ---

// LocalOut returns n's outgoing local edges under the requested view.
func (o *Overlay) LocalOut(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].localOut()
		} else if p == noEntry {
			return o.cond.LocalOut(n)
		}
	}
	return o.baseLocalOut(n)
}

// GlobalOut returns n's outgoing global edges under the requested view.
func (o *Overlay) GlobalOut(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].globalOut()
		} else if p == noEntry {
			return o.cond.GlobalOut(n)
		}
	}
	return o.baseGlobalOut(n)
}

// LocalIn returns n's incoming local edges under the requested view.
func (o *Overlay) LocalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].localIn()
		} else if p == noEntry {
			return o.cond.LocalIn(n)
		}
	}
	return o.baseLocalIn(n)
}

// GlobalIn returns n's incoming global edges under the requested view.
func (o *Overlay) GlobalIn(n pag.NodeID, condensed bool) []pag.Edge {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].globalIn()
		} else if p == noEntry {
			return o.cond.GlobalIn(n)
		}
	}
	return o.baseGlobalIn(n)
}

// HasGlobalIn reports the PPTA S1 frontier condition under the view.
func (o *Overlay) HasGlobalIn(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].hasGlobalIn()
		} else if p == noEntry {
			return o.cond.HasGlobalIn(n)
		}
	}
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].hasGlobalIn()
	} else if int(n) >= o.baseNodes {
		_, off := o.addedNode(n)
		return off[3] < off[4]
	}
	return o.g.HasGlobalIn(n)
}

// HasGlobalOut reports the PPTA S2 frontier condition under the view.
func (o *Overlay) HasGlobalOut(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].hasGlobalOut()
		} else if p == noEntry {
			return o.cond.HasGlobalOut(n)
		}
	}
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].hasGlobalOut()
	} else if int(n) >= o.baseNodes {
		_, off := o.addedNode(n)
		return off[1] < off[2]
	}
	return o.g.HasGlobalOut(n)
}

// HasLocalEdges reports whether n touches any local edge under the view.
func (o *Overlay) HasLocalEdges(n pag.NodeID, condensed bool) bool {
	if condensed && !o.trivial {
		if p := o.condSlot(n); p >= 0 {
			return o.condAdj[p].hasLocalEdges()
		} else if p == noEntry {
			return o.cond.HasLocalEdges(n)
		}
	}
	if p := o.baseIdx.get(n); p != noEntry {
		return o.baseAdj[p].hasLocalEdges()
	} else if int(n) >= o.baseNodes {
		_, off := o.addedNode(n)
		return off[0] < off[1] || off[2] < off[3]
	}
	return o.g.HasLocalEdges(n)
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
