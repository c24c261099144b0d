// Package pag implements the Pointer Assignment Graph (PAG), the program
// representation used by every points-to engine in this repository
// (paper §2, Figures 1 and 2).
//
// A PAG is a directed graph whose nodes are local variables (V), global
// (static) variables (G) and abstract objects / allocation sites (O), and
// whose edges represent the pointer-manipulating statements of the program.
// All edges are stored in the direction of value flow:
//
//	o --new-->        v   for  v = new O
//	x --assign-->     v   for  v = x                (both locals, same method)
//	x --assignglobal->v   for  v = x                (either side static)
//	x --load(f)-->    v   for  v = x.f              (source is the base)
//	v --store(f)-->   x   for  x.f = v              (target is the base)
//	a --entry(i)-->   p   actual→formal at call site i
//	r --exit(i)-->    l   return→lhs   at call site i
//
// new/assign/load/store are local edges (both endpoints inside one method);
// assignglobal/entry/exit are global edges. The local/global split is the
// foundation of DYNSUM's Partial Points-To Analysis (paper §4): local edges
// never change the calling context of a query, global edges never change its
// field-sensitivity state.
//
// Array element accesses are modelled by collapsing all elements into the
// distinguished field [ArrayField] ("arr"), as in the paper.
package pag

import "fmt"

// NodeID identifies a node (variable or object) in a Graph.
type NodeID int32

// FieldID identifies an instance field.
type FieldID int32

// CallSiteID identifies a call site (the paper's subscript i on entry/exit).
type CallSiteID int32

// MethodID identifies a method.
type MethodID int32

// ClassID identifies a class in the hierarchy.
type ClassID int32

// Sentinel "none" values for the identifier types.
const (
	NoNode     NodeID     = -1
	NoField    FieldID    = -1
	NoCallSite CallSiteID = -1
	NoMethod   MethodID   = -1
	NoClass    ClassID    = -1
)

// NodeKind classifies PAG nodes into the paper's V, G and O sets.
type NodeKind uint8

const (
	// Local is a method-local variable (set V).
	Local NodeKind = iota
	// Global is a static variable (set G); assignments touching one are
	// context-insensitive assignglobal edges.
	Global
	// Object is an abstract object, i.e. an allocation site (set O).
	Object
)

func (k NodeKind) String() string {
	switch k {
	case Local:
		return "local"
	case Global:
		return "global"
	case Object:
		return "object"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// EdgeKind enumerates the seven PAG edge kinds of paper Figure 1.
type EdgeKind uint8

const (
	// New connects an allocation site to the variable it is assigned to.
	New EdgeKind = iota
	// Assign is a local-to-local copy inside one method.
	Assign
	// Load is a field read v = x.f; the edge runs from the base x to v
	// and is labelled with f.
	Load
	// Store is a field write x.f = v; the edge runs from the value v to
	// the base x and is labelled with f.
	Store
	// AssignGlobal is a copy where at least one side is a static
	// variable; traversing it clears the calling context (paper §3.3).
	AssignGlobal
	// Entry passes an actual argument to a formal parameter at a call
	// site; labelled with the call-site ID.
	Entry
	// Exit passes a return value to the caller's left-hand side;
	// labelled with the call-site ID.
	Exit

	// NumEdgeKinds is the number of distinct edge kinds.
	NumEdgeKinds = int(Exit) + 1
)

// IsLocal reports whether the edge kind is local to a method (new, assign,
// load, store). Local edges are the domain of the PPTA (paper §4.1).
func (k EdgeKind) IsLocal() bool { return k <= Store }

// IsGlobal reports whether the edge kind is a global edge (assignglobal,
// entry, exit), i.e. context-bearing.
func (k EdgeKind) IsGlobal() bool { return k > Store }

func (k EdgeKind) String() string {
	switch k {
	case New:
		return "new"
	case Assign:
		return "assign"
	case AssignGlobal:
		return "assignglobal"
	case Load:
		return "load"
	case Store:
		return "store"
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is one PAG edge. Label is a FieldID for Load/Store edges, a
// CallSiteID for Entry/Exit edges, and unused (NoLabel) otherwise.
type Edge struct {
	Src, Dst NodeID
	Kind     EdgeKind
	Label    int32
}

// NoLabel is the Label of unlabelled edge kinds.
const NoLabel int32 = -1

// Field returns the field label of a Load/Store edge.
func (e Edge) Field() FieldID { return FieldID(e.Label) }

// Site returns the call-site label of an Entry/Exit edge.
func (e Edge) Site() CallSiteID { return CallSiteID(e.Label) }

// Node carries the metadata of one PAG node.
type Node struct {
	Kind   NodeKind
	Method MethodID // enclosing method (alloc method for objects); NoMethod for globals
	Class  ClassID  // allocated class for objects, declared class for vars (may be NoClass)
	Name   string
}

// Method carries the metadata of one method.
type Method struct {
	Name  string
	Class ClassID // declaring class; NoClass for synthetic methods
}

// Class is one entry in the (single-inheritance) class hierarchy.
type Class struct {
	Name   string
	Parent ClassID // NoClass for roots
}

// CallSite records one call site: the method containing it and, once the
// call graph is resolved, the callee methods it may dispatch to.
type CallSite struct {
	Caller  MethodID
	Name    string // diagnostic label, e.g. "Main.main:32"
	Targets []MethodID
}

// adjacency flags cached per node.
type nodeFlags uint8

const (
	flagLocalIn nodeFlags = 1 << iota
	flagLocalOut
	flagGlobalIn
	flagGlobalOut
)

// Graph is a Pointer Assignment Graph plus its symbol tables. Build one
// with a Builder, by decoding a serialised PAG, with the MiniJava frontend,
// or with the synthetic benchmark generator.
//
// A Graph has two stages. Under construction it is its tables plus an
// append-only edge list (Edges): AddNode and AddEdge grow it, and only the
// tables, the edge list and the Has* flags can be read. Freeze lays the
// list out as a flat CSR adjacency (see csr.go) with its SCC condensation
// and makes the graph immutable: AddNode/AddEdge panic, and the adjacency
// accessors, edge counts and by-field lists become readable. Engines
// analyse frozen graphs only, so one Graph is safely shared among
// concurrently running engines; a frozen program evolves through the
// delta overlay (internal/delta).
//
// Every node's adjacency is partitioned local edges first, global edges
// after, so the LocalIn/LocalOut/GlobalIn/GlobalOut accessors return plain
// subslices and the engines' hot loops run without kind-filter branches.
type Graph struct {
	nodes []Node

	// edges is the graph under construction: every AddEdge in call
	// order, repeats included. Freeze lays it out and releases it.
	edges []Edge

	// frozen is the CSR form, non-nil after Freeze.
	frozen *csr

	// cond is the SCC-condensed overlay (see condense.go), built by
	// Freeze alongside the CSR form.
	cond *Condensation

	flags []nodeFlags

	fields    []string
	methods   []Method
	classes   []Class
	callSites []CallSite

	edgeCount [NumEdgeKinds]int

	// loadsByField / storesByField index Load/Store edges by field;
	// REFINEPTS's field-based match edges need "all stores of f"
	// (paper Algorithm 1, line 14).
	loadsByField  map[FieldID][]Edge
	storesByField map[FieldID][]Edge

	fieldIndex map[string]FieldID

	// nullClass is the class of null objects (see NullClass), or NoClass.
	// Null is modelled as a per-method allocation of class "Null" so that
	// its new edges remain local, as the PPTA requires.
	nullClass ClassID

	arrayField FieldID

	// bodyless records the methods marked bodyless (see openworld.go) and
	// blobClassID the distinguished class of their blob nodes, NoClass
	// until the first mark.
	bodyless    map[MethodID]BodylessInfo
	blobClassID ClassID
}

// NewGraph returns an empty PAG.
func NewGraph() *Graph {
	g := &Graph{
		loadsByField:  make(map[FieldID][]Edge),
		storesByField: make(map[FieldID][]Edge),
		fieldIndex:    make(map[string]FieldID),
		nullClass:     NoClass,
		arrayField:    NoField,
		blobClassID:   NoClass,
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the total number of edges of a frozen graph.
func (g *Graph) NumEdges() int {
	n := 0
	for _, c := range g.edgeCount {
		n += c
	}
	return n
}

// EdgeKindCount returns the number of edges of kind k.
func (g *Graph) EdgeKindCount(k EdgeKind) int { return g.edgeCount[k] }

// Node returns the metadata of n.
func (g *Graph) Node(n NodeID) Node { return g.nodes[n] }

// Out returns the outgoing edges of n, local edges first (see LocalOut/
// GlobalOut for the two partitions). The slice is read-only: it is
// capacity-clamped, so appending allocates a copy instead of corrupting
// the graph, and its contents must not be written.
func (g *Graph) Out(n NodeID) []Edge {
	f := g.frozen
	return span(f.outEdges, f.outStart[n], f.outStart[n+1])
}

// In returns the incoming edges of n, local edges first. Read-only; see Out.
func (g *Graph) In(n NodeID) []Edge {
	f := g.frozen
	return span(f.inEdges, f.inStart[n], f.inStart[n+1])
}

// LocalOut returns the outgoing local (new/assign/load/store) edges of n —
// the PPTA's S2 iteration domain — as a read-only subslice, with no
// filtering at call time.
func (g *Graph) LocalOut(n NodeID) []Edge {
	f := g.frozen
	return span(f.outEdges, f.outStart[n], f.outSplit[n])
}

// GlobalOut returns the outgoing global (assignglobal/entry/exit) edges of
// n — the Algorithm 4 driver's S2 iteration domain — as a read-only
// subslice.
func (g *Graph) GlobalOut(n NodeID) []Edge {
	f := g.frozen
	return span(f.outEdges, f.outSplit[n], f.outStart[n+1])
}

// LocalIn returns the incoming local edges of n — the PPTA's S1 iteration
// domain — as a read-only subslice.
func (g *Graph) LocalIn(n NodeID) []Edge {
	f := g.frozen
	return span(f.inEdges, f.inStart[n], f.inSplit[n])
}

// GlobalIn returns the incoming global edges of n — the Algorithm 4
// driver's S1 iteration domain — as a read-only subslice.
func (g *Graph) GlobalIn(n NodeID) []Edge {
	f := g.frozen
	return span(f.inEdges, f.inSplit[n], f.inStart[n+1])
}

// Edges returns every edge, read-only: before Freeze the edge list in
// AddEdge order, repeats included; after it each edge once, grouped by
// source as Out presents them. It is the one edge read that works in both
// stages: code that may run before Freeze (Validate, the Andersen solver)
// and code that wants every edge once (Encode, open-world stripping) use
// it.
func (g *Graph) Edges() []Edge {
	if f := g.frozen; f != nil {
		return f.outEdges[:len(f.outEdges):len(f.outEdges)]
	}
	return g.edges[:len(g.edges):len(g.edges)]
}

// span carves the capacity-clamped subslice edges[i:j] out of a flat edge
// array, normalising empty spans to nil.
func span(edges []Edge, i, j int32) []Edge {
	if i == j {
		return nil
	}
	return edges[i:j:j]
}

// HasLocalIn reports whether n has at least one incoming local edge.
func (g *Graph) HasLocalIn(n NodeID) bool { return g.flags[n]&flagLocalIn != 0 }

// HasLocalOut reports whether n has at least one outgoing local edge.
func (g *Graph) HasLocalOut(n NodeID) bool { return g.flags[n]&flagLocalOut != 0 }

// HasGlobalIn reports whether n has at least one incoming global edge
// (the PPTA S1 frontier condition, paper Algorithm 3 line 15).
func (g *Graph) HasGlobalIn(n NodeID) bool { return g.flags[n]&flagGlobalIn != 0 }

// HasGlobalOut reports whether n has at least one outgoing global edge
// (the PPTA S2 frontier condition, paper Algorithm 3 line 28).
func (g *Graph) HasGlobalOut(n NodeID) bool { return g.flags[n]&flagGlobalOut != 0 }

// HasLocalEdges reports whether n touches any local edge in either
// direction. DYNSUM skips the PPTA for nodes without local edges
// (paper §4.3).
func (g *Graph) HasLocalEdges(n NodeID) bool {
	return g.flags[n]&(flagLocalIn|flagLocalOut) != 0
}

// LoadsOf returns all Load edges labelled f, in the order the frozen
// graph's edge list first named them.
func (g *Graph) LoadsOf(f FieldID) []Edge { return g.loadsByField[f] }

// StoresOf returns all Store edges labelled f, ordered as LoadsOf.
func (g *Graph) StoresOf(f FieldID) []Edge { return g.storesByField[f] }

// NumFields returns the number of interned fields.
func (g *Graph) NumFields() int { return len(g.fields) }

// FieldName returns the name of f.
func (g *Graph) FieldName(f FieldID) string { return g.fields[f] }

// NumMethods returns the number of methods.
func (g *Graph) NumMethods() int { return len(g.methods) }

// MethodInfo returns the metadata of m.
func (g *Graph) MethodInfo(m MethodID) Method { return g.methods[m] }

// NumClasses returns the number of classes.
func (g *Graph) NumClasses() int { return len(g.classes) }

// ClassInfo returns the metadata of c.
func (g *Graph) ClassInfo(c ClassID) Class { return g.classes[c] }

// NumCallSites returns the number of call sites.
func (g *Graph) NumCallSites() int { return len(g.callSites) }

// CallSiteInfo returns the metadata of cs.
func (g *Graph) CallSiteInfo(cs CallSiteID) CallSite { return g.callSites[cs] }

// SubtypeOf reports whether class c is t or a (transitive) subclass of t.
func (g *Graph) SubtypeOf(c, t ClassID) bool {
	for c != NoClass {
		if c == t {
			return true
		}
		c = g.classes[c].Parent
	}
	return false
}

// ArrayField returns the distinguished field that models all array
// elements, interning it on first use.
func (g *Graph) ArrayField() FieldID {
	if g.arrayField == NoField {
		g.arrayField = g.AddField("arr")
	}
	return g.arrayField
}

// NodeString renders n as "method.name" (or "name" for globals/objects
// without a method), for diagnostics and DOT output.
func (g *Graph) NodeString(n NodeID) string {
	nd := g.nodes[n]
	if nd.Method != NoMethod {
		return g.methods[nd.Method].Name + "." + nd.Name
	}
	return nd.Name
}

// --- mutation (builder-level API; not for use during analysis) ---

// AddClass appends a class and returns its ID.
func (g *Graph) AddClass(name string, parent ClassID) ClassID {
	g.classes = append(g.classes, Class{Name: name, Parent: parent})
	return ClassID(len(g.classes) - 1)
}

// SetClassParent re-parents class c (used by frontends that declare
// classes before resolving inheritance).
func (g *Graph) SetClassParent(c, parent ClassID) { g.classes[c].Parent = parent }

// AddMethod appends a method and returns its ID.
func (g *Graph) AddMethod(name string, class ClassID) MethodID {
	g.methods = append(g.methods, Method{Name: name, Class: class})
	return MethodID(len(g.methods) - 1)
}

// AddField interns a field name and returns its ID. Field names are global
// (we follow the paper's convention that identically-named fields of
// different classes are distinguished by the frontend before reaching here;
// the frontend qualifies names as "Class.field").
func (g *Graph) AddField(name string) FieldID {
	if id, ok := g.fieldIndex[name]; ok {
		return id
	}
	id := FieldID(len(g.fields))
	g.fields = append(g.fields, name)
	g.fieldIndex[name] = id
	return id
}

// AddCallSite appends a call site in method caller and returns its ID.
func (g *Graph) AddCallSite(caller MethodID, name string) CallSiteID {
	g.callSites = append(g.callSites, CallSite{Caller: caller, Name: name})
	return CallSiteID(len(g.callSites) - 1)
}

// AddCallTarget records that call site cs may dispatch to method m.
func (g *Graph) AddCallTarget(cs CallSiteID, m MethodID) {
	for _, t := range g.callSites[cs].Targets {
		if t == m {
			return
		}
	}
	g.callSites[cs].Targets = append(g.callSites[cs].Targets, m)
}

// Tables is the table side of a graph, read by ID: its classes, fields,
// methods, call sites and nodes. *Graph has it, and so has the delta
// overlay, whose tables extend its base graph's.
type Tables interface {
	NumClasses() int
	ClassInfo(ClassID) Class
	NumFields() int
	FieldName(FieldID) string
	NumMethods() int
	MethodInfo(MethodID) Method
	NumCallSites() int
	CallSiteInfo(CallSiteID) CallSite
	NumNodes() int
	Node(NodeID) Node
}

// CopyTables returns a graph under construction holding src's classes,
// fields, methods, call sites with their targets, and nodes, each under
// its ID in src, and no edges: the start of every rebuild that must keep
// IDs stable.
func CopyTables(src Tables) *Graph {
	g := NewGraph()
	for c := range ClassID(src.NumClasses()) {
		ci := src.ClassInfo(c)
		g.AddClass(ci.Name, ci.Parent)
	}
	for f := range FieldID(src.NumFields()) {
		g.AddField(src.FieldName(f))
	}
	for m := range MethodID(src.NumMethods()) {
		mi := src.MethodInfo(m)
		g.AddMethod(mi.Name, mi.Class)
	}
	for cs := range CallSiteID(src.NumCallSites()) {
		info := src.CallSiteInfo(cs)
		id := g.AddCallSite(info.Caller, info.Name)
		for _, t := range info.Targets {
			g.AddCallTarget(id, t)
		}
	}
	for n := range NodeID(src.NumNodes()) {
		nd := src.Node(n)
		g.AddNode(nd.Kind, nd.Method, nd.Class, nd.Name)
	}
	return g
}

// AddNode appends a node and returns its ID. On a frozen graph it panics
// with a *FrozenError (wrapping ErrFrozen) naming the target method; use
// the delta overlay (internal/delta) to grow a frozen graph.
func (g *Graph) AddNode(kind NodeKind, method MethodID, class ClassID, name string) NodeID {
	if g.frozen != nil {
		panic(g.frozenPanic("AddNode", NoNode, method))
	}
	g.nodes = append(g.nodes, Node{Kind: kind, Method: method, Class: class, Name: name})
	g.flags = append(g.flags, 0)
	return NodeID(len(g.nodes) - 1)
}

// AddEdge appends e to the graph under construction. Repeats are allowed:
// Freeze keeps the first of each. The endpoints' Has* flags are set at
// once, so MarkBodyless can tell a method with a body before Freeze. On a
// frozen graph it panics with a *FrozenError (wrapping ErrFrozen) naming
// the edge's source node and method; use the delta overlay
// (internal/delta) to grow a frozen graph.
func (g *Graph) AddEdge(e Edge) {
	if g.frozen != nil {
		panic(g.frozenPanic("AddEdge", e.Src, NoMethod))
	}
	g.flag(e)
	g.edges = append(g.edges, e)
}

// flag sets the adjacency flags e gives its endpoints.
func (g *Graph) flag(e Edge) {
	if e.Kind.IsLocal() {
		g.flags[e.Src] |= flagLocalOut
		g.flags[e.Dst] |= flagLocalIn
	} else {
		g.flags[e.Src] |= flagGlobalOut
		g.flags[e.Dst] |= flagGlobalIn
	}
}

// HasEdge reports whether an identical edge exists, by scanning the
// (short, partitioned) adjacency span of e.Src.
func (g *Graph) HasEdge(e Edge) bool {
	span := g.GlobalOut(e.Src)
	if e.Kind.IsLocal() {
		span = g.LocalOut(e.Src)
	}
	for _, have := range span {
		if have == e {
			return true
		}
	}
	return false
}

// NullClass returns the class of null objects, interning it on first use.
// Null assignments are modelled as method-local allocations of this class
// so that their new edges stay local, as the PPTA requires.
func (g *Graph) NullClass() ClassID {
	if g.nullClass == NoClass {
		g.nullClass = g.AddClass("Null", NoClass)
	}
	return g.nullClass
}

// ResolveDerived re-interns the distinguished identifiers the mutators
// normally intern on demand — the field-name index, the "arr" array field
// and the "Null" class — from the symbol tables. Construction paths that
// copy tables wholesale (the PAG decoder, the delta overlay's Compact)
// call it so ArrayField and IsNullObject keep working on the copy without
// duplicating entries. Idempotent.
func (g *Graph) ResolveDerived() {
	for i, f := range g.fields {
		g.fieldIndex[f] = FieldID(i)
		if f == "arr" {
			g.arrayField = FieldID(i)
		}
	}
	for i, c := range g.classes {
		if c.Name == "Null" {
			g.nullClass = ClassID(i)
		}
		if c.Name == BlobClassName {
			g.blobClassID = ClassID(i)
		}
	}
}

// NullClassID returns the class of null objects without interning it:
// NoClass when the graph models no nulls. Metadata-only readers (the delta
// overlay) use this instead of NullClass, which mutates on first use.
func (g *Graph) NullClassID() ClassID { return g.nullClass }

// IsNullObject reports whether n is a null object.
func (g *Graph) IsNullObject(n NodeID) bool {
	nd := g.nodes[n]
	return nd.Kind == Object && g.nullClass != NoClass && nd.Class == g.nullClass
}

// Validate checks structural invariants: labels present exactly on the
// labelled kinds, endpoints in range, new edges sourced at objects, and
// local edges confined to one method. It returns the first violation in
// Edges order.
func (g *Graph) Validate() error {
	for _, e := range g.Edges() {
		if err := g.validateEdge(e); err != nil {
			return err
		}
	}
	return nil
}

func (g *Graph) validateEdge(e Edge) error {
	if e.Src < 0 || int(e.Src) >= len(g.nodes) || e.Dst < 0 || int(e.Dst) >= len(g.nodes) {
		return fmt.Errorf("pag: edge %v endpoint out of range", e)
	}
	src, dst := g.nodes[e.Src], g.nodes[e.Dst]
	switch e.Kind {
	case New:
		if src.Kind != Object {
			return fmt.Errorf("pag: new edge %s -> %s must originate at an object",
				g.NodeString(e.Src), g.NodeString(e.Dst))
		}
		if dst.Kind == Global {
			return fmt.Errorf("pag: new edge %s -> %s targets a global; allocate into a local first",
				g.NodeString(e.Src), g.NodeString(e.Dst))
		}
		if src.Method != dst.Method {
			return fmt.Errorf("pag: new edge %s -> %s crosses methods; objects must be allocated in the using method",
				g.NodeString(e.Src), g.NodeString(e.Dst))
		}
	case Load, Store:
		if e.Field() < 0 || int(e.Field()) >= len(g.fields) {
			return fmt.Errorf("pag: %s edge %s -> %s has invalid field %d",
				e.Kind, g.NodeString(e.Src), g.NodeString(e.Dst), e.Label)
		}
	case Entry, Exit:
		if e.Site() < 0 || int(e.Site()) >= len(g.callSites) {
			return fmt.Errorf("pag: %s edge %s -> %s has invalid call site %d",
				e.Kind, g.NodeString(e.Src), g.NodeString(e.Dst), e.Label)
		}
	case Assign:
		if src.Kind == Global || dst.Kind == Global {
			return fmt.Errorf("pag: assign edge %s -> %s touches a global; use assignglobal",
				g.NodeString(e.Src), g.NodeString(e.Dst))
		}
	}
	if e.Kind.IsLocal() && e.Kind != New {
		if src.Kind == Global || dst.Kind == Global {
			return fmt.Errorf("pag: local %s edge %s -> %s touches a global node",
				e.Kind, g.NodeString(e.Src), g.NodeString(e.Dst))
		}
		if src.Method != dst.Method {
			return fmt.Errorf("pag: local %s edge %s -> %s crosses methods",
				e.Kind, g.NodeString(e.Src), g.NodeString(e.Dst))
		}
	}
	return nil
}
