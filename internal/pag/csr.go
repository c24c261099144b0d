package pag

import "errors"

// This file implements Freeze: the one step that turns a graph under
// construction (its tables plus an append-only edge list) into the frozen
// compressed-sparse-row (CSR) layout every engine reads. Builders, the
// frontends, the PAG decoder and the delta overlay's Compact all end here,
// so every frozen graph is laid out by the same code.
//
// The CSR holds two flat edge arrays (out- and in-edges, grouped by node)
// indexed by offset arrays. Within each node's span local edges (new/
// assign/load/store) come first and global edges (assignglobal/entry/
// exit) after, with the boundary recorded per node. The PPTA (paper
// Algorithm 3) therefore iterates exactly its local edges and the
// Algorithm 4 driver exactly its global edges through the LocalIn/
// LocalOut/GlobalIn/GlobalOut accessors — no kind-filter branch ever runs
// on the query path. Every accessor returns a capacity-clamped subslice,
// so a buggy append in a caller cannot silently overwrite a neighbouring
// node's edges.

// csr is the frozen adjacency representation. offsets have len(nodes)+1
// entries; node n's out-edges are outEdges[outStart[n]:outStart[n+1]],
// with outSplit[n] (an absolute index) marking the first global edge.
type csr struct {
	outEdges []Edge
	outStart []int32
	outSplit []int32

	inEdges []Edge
	inStart []int32
	inSplit []int32
}

// Freeze lays the edge list out as the immutable CSR layout and condenses
// it: repeats are dropped (dropRepeats, keeping each edge's first
// occurrence), the spans are filled in list order (buildCSR), the edge
// counts, adjacency flags and by-field Load/Store lists are indexed from
// the deduplicated list, and the assign SCCs are collapsed into the
// condensed overlay (condense.go). The edge list is released. Freeze is
// idempotent and must be called only once construction is complete
// (including any on-the-fly call-graph resolution, which adds entry/exit
// edges): AddNode and AddEdge panic afterwards.
func (g *Graph) Freeze() {
	if g.frozen != nil {
		return
	}
	edges := dropRepeats(len(g.nodes), g.edges)
	g.edges = nil
	g.frozen = buildCSR(len(g.nodes), edges)
	for _, e := range edges {
		g.edgeCount[e.Kind]++
		g.flag(e)
		switch e.Kind {
		case Load:
			g.loadsByField[e.Field()] = append(g.loadsByField[e.Field()], e)
		case Store:
			g.storesByField[e.Field()] = append(g.storesByField[e.Field()], e)
		}
	}
	g.cond = g.condense()
}

// buildCSR lays out n nodes' adjacency from a duplicate-free edge list: a
// counting pass sizes every span, and a fill pass places the edges in list
// order through keepPartitioned.
func buildCSR(n int, edges []Edge) *csr {
	f := &csr{
		outEdges: make([]Edge, len(edges)),
		outStart: make([]int32, n+1),
		outSplit: make([]int32, n),
		inEdges:  make([]Edge, len(edges)),
		inStart:  make([]int32, n+1),
		inSplit:  make([]int32, n),
	}
	for _, e := range edges {
		f.outStart[e.Src+1]++
		f.inStart[e.Dst+1]++
	}
	for i := 0; i < n; i++ {
		f.outStart[i+1] += f.outStart[i]
		f.inStart[i+1] += f.inStart[i]
	}
	next := make([]int32, n)
	fill := func(dst []Edge, start, split []int32, owner func(Edge) NodeID) {
		copy(next, start[:n])
		copy(split, start[:n])
		for _, e := range edges {
			v := owner(e)
			at := next[v]
			dst[at] = e
			keepPartitioned(dst[:at+1], &split[v])
			next[v]++
		}
	}
	fill(f.outEdges, f.outStart, f.outSplit, func(e Edge) NodeID { return e.Src })
	fill(f.inEdges, f.inStart, f.inSplit, func(e Edge) NodeID { return e.Dst })
	return f
}

// keepPartitioned restores the local-first partition of one node's span
// after an edge was written to the span's next slot, s[len(s)-1]. *split
// indexes s at the span's first global edge; the span may start anywhere
// in s, so buildCSR passes the flat edge array up to the new slot. A local
// edge lands at the boundary by swapping the first global edge (if any) to
// the end — O(1), and the local/global partition each side of the
// boundary is preserved. The order this leaves within a span is what the
// engines' budgeted traversal counts depend on.
func keepPartitioned(s []Edge, split *int32) {
	last := len(s) - 1
	if s[last].Kind.IsLocal() {
		if at := int(*split); at < last {
			s[at], s[last] = s[last], s[at]
		}
		*split++
	}
}

// Frozen reports whether the graph has been compacted to the CSR layout.
func (g *Graph) Frozen() bool { return g.frozen != nil }

// ErrFrozen is the sentinel condition of every post-freeze mutation panic:
// the value raised by AddNode/AddEdge on a frozen Graph is a *FrozenError,
// and errors.Is(recover().(error), ErrFrozen) identifies it. Freeze() makes
// the PAG immutable; the supported way to keep growing a frozen program is
// the delta path (internal/delta: record the change in a delta.Log and
// apply it as an epoch overlay — DynSum.ApplyDelta on an engine), which
// absorbs method-granular changes without thawing or rebuilding the CSR
// layout.
var ErrFrozen = errors.New("pag: mutation of a frozen graph")

// FrozenError is the panic value of a post-freeze AddNode/AddEdge: it
// names the rejected operation and — as far as the arguments identify
// them — the node and method involved, so the panic message of a misplaced
// mutation points at the offending program element rather than just at the
// graph. It wraps ErrFrozen.
type FrozenError struct {
	Op     string   // "AddNode" or "AddEdge"
	Node   NodeID   // AddEdge: the edge's source; NoNode for AddNode
	Method MethodID // enclosing method of the rejected element; NoMethod if unknown
	Name   string   // node or method name, when resolvable
}

func (e *FrozenError) Error() string {
	msg := "pag: " + e.Op + " on a frozen graph"
	if e.Name != "" {
		msg += " (" + e.Name + ")"
	}
	return msg + "; Freeze() made the PAG immutable — evolve it through the delta overlay (internal/delta, DynSum.ApplyDelta)"
}

// Unwrap ties FrozenError to the ErrFrozen sentinel for errors.Is.
func (e *FrozenError) Unwrap() error { return ErrFrozen }

// frozenPanic builds the FrozenError for op, resolving the best available
// name: the method (and source node, for edges) the rejected element
// belongs to.
func (g *Graph) frozenPanic(op string, n NodeID, m MethodID) *FrozenError {
	e := &FrozenError{Op: op, Node: n, Method: m}
	if n != NoNode && int(n) < len(g.nodes) {
		if nm := g.nodes[n].Method; nm != NoMethod {
			e.Method = nm
		}
		e.Name = g.NodeString(n)
	} else if m != NoMethod && int(m) < len(g.methods) {
		e.Name = "method " + g.methods[m].Name
	}
	return e
}
