// Package andersen implements an Andersen-style (inclusion-based,
// flow- and context-insensitive, field-sensitive) whole-program points-to
// analysis over a PAG, with on-the-fly call-graph construction.
//
// It plays two roles in this repository, mirroring Spark's roles in the
// paper (§5.1 and the Table 3 caption):
//
//   - The MiniJava frontend resolves virtual call sites with it: whenever
//     the receiver's points-to set grows, newly dispatchable callees are
//     wired into the PAG as entry/exit edges, exactly like the paper's
//     "call graph constructed on the fly with Andersen-style analysis".
//
//   - It is the soundness oracle for the demand-driven engines: a
//     context-sensitive demand query's object set must be a subset of the
//     Andersen set for the same variable.
//
// The solver is the standard dynamic-copy-graph formulation: cells are
// variables plus (object, field) slots; load/store edges spawn copy edges
// as base points-to sets grow; propagation runs a difference-based
// worklist to a fixpoint.
//
// The solver reads the graph only through its edge list (pag.Graph.Edges)
// and keeps its own copy graph and index of field edges, so it runs on a
// graph under construction (the frontend's case: on-the-fly call-graph
// construction appends edges, which is only legal before Freeze) and on a
// frozen one (the oracle's) alike. It never uses the SCC-condensed overlay
// (pag/condense.go), which Freeze builds; online cycle collapse à la
// Hardekopf–Lin would live inside the copy graph. As the soundness oracle
// it also wants per-node sets: tests index its results by original NodeID.
package andersen

import (
	"cmp"
	"slices"
	"sort"

	"dynsum/internal/pag"
)

// cell indexes a propagation cell: graph nodes first, then interned
// (object, field) slots.
type cell int32

// VirtualCall describes one unresolved virtual call site for on-the-fly
// call-graph construction. Actuals[0] is the receiver; the Dispatcher
// resolves (receiver class, Sig) to a callee.
type VirtualCall struct {
	Site    pag.CallSiteID
	Recv    pag.NodeID
	Sig     string // dispatch key, e.g. method name + arity
	Actuals []pag.NodeID
	Lhs     pag.NodeID // pag.NoNode when the result is unused
}

// Callee is a resolved dispatch target: the method and its parameter and
// return nodes. Formals[0] receives the receiver.
type Callee struct {
	Method  pag.MethodID
	Formals []pag.NodeID
	Ret     pag.NodeID // pag.NoNode for void methods
}

// Dispatcher resolves dynamic dispatch for on-the-fly call-graph building.
type Dispatcher interface {
	Dispatch(recvClass pag.ClassID, sig string) (Callee, bool)
}

// Result holds the whole-program points-to solution.
type Result struct {
	g    *pag.Graph
	pts  []map[pag.NodeID]bool // per cell
	slot map[slotKey]cell

	// ResolvedCalls counts (site, callee) pairs wired during the solve.
	ResolvedCalls int
	// Iterations counts worklist pops, a deterministic work measure.
	Iterations int
}

type slotKey struct {
	obj   pag.NodeID
	field pag.FieldID
}

// PointsTo returns the objects v may point to, sorted.
func (r *Result) PointsTo(v pag.NodeID) []pag.NodeID {
	set := r.pts[v]
	out := make([]pag.NodeID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Has reports whether v may point to o.
func (r *Result) Has(v, o pag.NodeID) bool { return r.pts[v][o] }

// Size returns |pts(v)|.
func (r *Result) Size(v pag.NodeID) int { return len(r.pts[v]) }

// solver state.
type solver struct {
	g    *pag.Graph
	res  *Result
	succ []map[cell]bool // dynamic copy graph
	// fieldEdges[n] lists the load edges with base n and the store edges
	// with value or base n: the field constraints n's growth triggers.
	fieldEdges [][]pag.Edge
	calls      []VirtualCall
	disp       Dispatcher
	// callsByRecv groups unresolved calls by receiver for quick reaction
	// to receiver points-to growth.
	callsByRecv map[pag.NodeID][]int
	resolved    map[resolvedKey]bool
	// wired lists the resolved (call, callee) pairs in discovery order,
	// which follows points-to map iteration; Solve adds them to the graph
	// in a fixed order after the fixpoint.
	wired  []wiredCall
	work   []cell
	inWork []bool
}

type resolvedKey struct {
	call   int
	method pag.MethodID
}

// wiredCall is one resolved dispatch: call indexes Solve's calls.
type wiredCall struct {
	call   int
	callee Callee
}

// Solve runs the analysis. calls may be nil (fully static call graph).
// When calls are supplied, resolved targets are added to g as entry/exit
// edges and registered as call-site targets, so g afterwards contains the
// on-the-fly call graph the demand engines need.
func Solve(g *pag.Graph, calls []VirtualCall, disp Dispatcher) *Result {
	n := g.NumNodes()
	s := &solver{
		g: g,
		res: &Result{
			g:    g,
			pts:  make([]map[pag.NodeID]bool, n),
			slot: make(map[slotKey]cell),
		},
		succ:        make([]map[cell]bool, n),
		fieldEdges:  make([][]pag.Edge, n),
		calls:       calls,
		disp:        disp,
		callsByRecv: make(map[pag.NodeID][]int),
		resolved:    make(map[resolvedKey]bool),
		inWork:      make([]bool, n),
	}
	for i, c := range calls {
		s.callsByRecv[c.Recv] = append(s.callsByRecv[c.Recv], i)
	}

	// Static copy edges, allocation seeds and the field-edge index.
	for _, e := range g.Edges() {
		switch e.Kind {
		case pag.New:
			s.addObj(cell(e.Dst), e.Src)
		case pag.Assign, pag.AssignGlobal, pag.Entry, pag.Exit:
			s.addCopy(cell(e.Src), cell(e.Dst))
		case pag.Load:
			s.fieldEdges[e.Src] = append(s.fieldEdges[e.Src], e)
		case pag.Store:
			s.fieldEdges[e.Src] = append(s.fieldEdges[e.Src], e)
			if e.Dst != e.Src {
				s.fieldEdges[e.Dst] = append(s.fieldEdges[e.Dst], e)
			}
		}
	}

	for len(s.work) > 0 {
		c := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if int(c) < len(s.inWork) {
			s.inWork[c] = false
		}
		s.res.Iterations++
		s.process(c)
	}
	s.wire()
	return s.res
}

// wire adds the resolved calls to the graph, ordered by call site, callee
// method and argument position (the exit edge last), so that the graph,
// its call-target lists and everything laid out from them do not depend
// on the order the solver met the receivers' objects in.
func (s *solver) wire() {
	slices.SortFunc(s.wired, func(a, b wiredCall) int {
		return cmp.Or(cmp.Compare(s.calls[a.call].Site, s.calls[b.call].Site),
			cmp.Compare(a.callee.Method, b.callee.Method), cmp.Compare(a.call, b.call))
	})
	for _, w := range s.wired {
		call := s.calls[w.call]
		s.g.AddCallTarget(call.Site, w.callee.Method)
		s.eachFlow(call, w.callee, func(e pag.Edge) { s.g.AddEdge(e) })
	}
}

// eachFlow calls fn with the entry edge of every argument position, in
// order, and then the exit edge, that wiring callee at call adds.
func (s *solver) eachFlow(call VirtualCall, callee Callee, fn func(pag.Edge)) {
	for i, actual := range call.Actuals {
		if i >= len(callee.Formals) {
			break
		}
		// Non-reference positions (int parameters) are NoNode on either
		// side and carry no points-to flow.
		if actual == pag.NoNode || callee.Formals[i] == pag.NoNode {
			continue
		}
		fn(pag.Edge{Src: actual, Dst: callee.Formals[i], Kind: pag.Entry, Label: int32(call.Site)})
	}
	if call.Lhs != pag.NoNode && callee.Ret != pag.NoNode {
		fn(pag.Edge{Src: callee.Ret, Dst: call.Lhs, Kind: pag.Exit, Label: int32(call.Site)})
	}
}

// cellPts returns the points-to set of c, allocating on demand.
func (s *solver) cellPts(c cell) map[pag.NodeID]bool {
	for int(c) >= len(s.res.pts) {
		s.res.pts = append(s.res.pts, nil)
		s.succ = append(s.succ, nil)
		s.inWork = append(s.inWork, false)
	}
	if s.res.pts[c] == nil {
		s.res.pts[c] = make(map[pag.NodeID]bool)
	}
	return s.res.pts[c]
}

func (s *solver) enqueue(c cell) {
	if !s.inWork[c] {
		s.inWork[c] = true
		s.work = append(s.work, c)
	}
}

// addObj seeds object o into cell c.
func (s *solver) addObj(c cell, o pag.NodeID) {
	set := s.cellPts(c)
	if !set[o] {
		set[o] = true
		s.enqueue(c)
	}
}

// addCopy inserts copy edge from→to and propagates the current set.
func (s *solver) addCopy(from, to cell) {
	s.cellPts(from)
	if s.succ[from] == nil {
		s.succ[from] = make(map[cell]bool)
	}
	if s.succ[from][to] {
		return
	}
	s.succ[from][to] = true
	if s.flowInto(to, s.res.pts[from]) {
		s.enqueue(to)
	}
}

// flowInto merges src into the set of cell to; reports growth.
func (s *solver) flowInto(to cell, src map[pag.NodeID]bool) bool {
	set := s.cellPts(to)
	grew := false
	for o := range src {
		if !set[o] {
			set[o] = true
			grew = true
		}
	}
	return grew
}

// slotCell interns the propagation cell of (object, field).
func (s *solver) slotCell(o pag.NodeID, f pag.FieldID) cell {
	k := slotKey{o, f}
	if c, ok := s.res.slot[k]; ok {
		return c
	}
	c := cell(len(s.res.pts))
	s.res.slot[k] = c
	s.cellPts(c)
	return c
}

// process reacts to the (possibly grown) points-to set of c: propagate
// along copy edges, materialise field constraints, resolve virtual calls.
func (s *solver) process(c cell) {
	set := s.res.pts[c]

	for to := range s.succ[c] {
		if s.flowInto(to, set) {
			s.enqueue(to)
		}
	}

	// Field constraints and dispatch apply to graph nodes only.
	if int(c) >= s.g.NumNodes() {
		return
	}
	n := pag.NodeID(c)
	for _, e := range s.fieldEdges[n] {
		if e.Kind == pag.Load {
			// n is the base: its objects' slots flow into the target.
			for o := range set {
				s.addCopy(s.slotCell(o, e.Field()), cell(e.Dst))
			}
			continue
		}
		// A store edge runs value -> base.
		if e.Src == n {
			// n is the value: the base's objects determine the slots it
			// flows into.
			for o := range s.res.pts[e.Dst] {
				s.addCopy(cell(n), s.slotCell(o, e.Field()))
			}
		}
		if e.Dst == n {
			// n is the base: its new objects open new slots for the value.
			for o := range set {
				s.addCopy(cell(e.Src), s.slotCell(o, e.Field()))
			}
		}
	}

	// Virtual dispatch on receiver growth.
	if s.disp != nil {
		for _, ci := range s.callsByRecv[n] {
			s.resolveCall(ci, set)
		}
	}
}

// resolveCall adds the copy edges of every callee newly dispatchable from
// the receiver's current points-to set, and records it for wire.
func (s *solver) resolveCall(ci int, recvPts map[pag.NodeID]bool) {
	call := s.calls[ci]
	for o := range recvPts {
		callee, ok := s.disp.Dispatch(s.g.Node(o).Class, call.Sig)
		if !ok {
			continue
		}
		rk := resolvedKey{call: ci, method: callee.Method}
		if s.resolved[rk] {
			continue
		}
		s.resolved[rk] = true
		s.res.ResolvedCalls++
		s.wired = append(s.wired, wiredCall{call: ci, callee: callee})
		s.eachFlow(call, callee, func(e pag.Edge) { s.addCopy(cell(e.Src), cell(e.Dst)) })
	}
}
