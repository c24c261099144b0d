package pag

import "errors"

// This file implements the frozen compressed-sparse-row (CSR) graph layout.
//
// A Graph starts life in builder form: per-node []Edge adjacency slices
// plus the duplicate-suppression edge set. That form is convenient to grow
// but hostile to the query engines, whose hot loops walk adjacency lists
// millions of times per batch: every node's edges live in a separate heap
// allocation, and the builder bookkeeping (edgeSet) stays resident forever.
//
// Freeze compacts the graph into two flat edge arrays (out- and in-edges,
// grouped by node) indexed by offset arrays, and drops the builder-only
// structures. Within each node's span the edges keep the invariant that
// AddEdge already maintains incrementally: local edges (new/assign/load/
// store) first, global edges (assignglobal/entry/exit) after, with the
// boundary recorded per node. The PPTA (paper Algorithm 3) therefore
// iterates exactly its local edges and the Algorithm 4 driver exactly its
// global edges through the LocalIn/LocalOut/GlobalIn/GlobalOut accessors —
// no kind-filter branch ever runs on the query path.
//
// A frozen Graph is immutable: AddNode/AddEdge panic, and every adjacency
// accessor returns a capacity-clamped subslice so a buggy append in a
// caller cannot silently overwrite a neighbouring node's edges.

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

// Freeze converts the graph to the immutable CSR layout and releases the
// builder-form adjacency and the duplicate-suppression edge set. It is
// idempotent and must be called only after construction is complete
// (including any on-the-fly call-graph resolution, which adds entry/exit
// edges): all mutation of nodes or edges afterwards panics.
//
// Engines work on frozen and unfrozen graphs alike — the adjacency
// accessors present the same partitioned view of both — but the frozen
// form is what the benchmarks measure: one contiguous allocation per
// direction, no per-node slice headers, no edge set.
func (g *Graph) Freeze() {
	if g.frozen != nil {
		return
	}
	n := len(g.nodes)
	f := &csr{
		outStart: make([]int32, n+1),
		outSplit: make([]int32, n),
		inStart:  make([]int32, n+1),
		inSplit:  make([]int32, n),
	}
	total := 0
	for _, es := range g.out {
		total += len(es)
	}
	f.outEdges = make([]Edge, 0, total)
	f.inEdges = make([]Edge, 0, total)
	for i := 0; i < n; i++ {
		f.outStart[i] = int32(len(f.outEdges))
		f.outSplit[i] = f.outStart[i] + g.outSplit[i]
		f.outEdges = append(f.outEdges, g.out[i]...)
		f.inStart[i] = int32(len(f.inEdges))
		f.inSplit[i] = f.inStart[i] + g.inSplit[i]
		f.inEdges = append(f.inEdges, g.in[i]...)
	}
	f.outStart[n] = int32(len(f.outEdges))
	f.inStart[n] = int32(len(f.inEdges))

	g.frozen = f
	g.out, g.in = nil, nil
	g.outSplit, g.inSplit = nil, nil
	g.edgeSet = nil

	// With the CSR layout in place, collapse assign SCCs into the
	// condensed overlay (condense.go). Mutable graphs never get one, so
	// incrementally edited PAGs stay on the exact per-node path.
	g.cond = g.condense()
}

// buildCSR lays out n nodes' adjacency straight from a duplicate-free edge
// list, without the builder form: a counting pass sizes every span, and a
// fill pass places the edges in list order through keepPartitioned. For a
// list in AddEdge insertion order the result equals what AddEdge followed
// by Freeze builds, edge for edge.
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

// Frozen reports whether the graph has been compacted to the CSR layout.
func (g *Graph) Frozen() bool { return g.frozen != nil }

// ErrFrozen is the sentinel condition of every post-freeze mutation panic:
// the value raised by AddNode/AddEdge on a frozen Graph is a *FrozenError,
// and errors.Is(recover().(error), ErrFrozen) identifies it. Freeze() makes
// the PAG immutable; the supported way to keep growing a frozen program is
// the delta path (internal/delta: record the change in a delta.Log and
// apply it as an epoch overlay — DynSum.ApplyDelta on an engine), which
// absorbs method-granular changes without thawing or rebuilding the CSR
// layout. PAGs that need free-form edits should simply skip Freeze.
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
	return msg + "; Freeze() made the PAG immutable — evolve it through the delta overlay (internal/delta, DynSum.ApplyDelta) or skip Freeze for free-form incremental edits"
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
