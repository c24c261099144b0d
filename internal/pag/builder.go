package pag

import "fmt"

// Builder provides a statement-level API over a Graph: each method mirrors
// one statement form of paper Figure 1 and inserts the corresponding edge,
// choosing assign vs assignglobal automatically and keeping null modelling
// consistent. The zero value is not usable; call NewBuilder.
type Builder struct {
	// G is the graph under construction.
	G *Graph

	nullObjs map[MethodID]NodeID // per-method null allocation memo
	siteSeq  map[MethodID]int    // per-method call-site numbering for labels
}

// NewBuilder returns a Builder over a fresh Graph.
func NewBuilder() *Builder {
	return &Builder{
		G:        NewGraph(),
		nullObjs: make(map[MethodID]NodeID),
		siteSeq:  make(map[MethodID]int),
	}
}

// Class declares a class. Pass NoClass for root classes.
func (b *Builder) Class(name string, parent ClassID) ClassID {
	return b.G.AddClass(name, parent)
}

// Method declares a method of class.
func (b *Builder) Method(name string, class ClassID) MethodID {
	return b.G.AddMethod(name, class)
}

// Local declares a local variable of method m with an optional declared class.
func (b *Builder) Local(m MethodID, name string, class ClassID) NodeID {
	return b.G.AddNode(Local, m, class, name)
}

// GlobalVar declares a static variable.
func (b *Builder) GlobalVar(name string, class ClassID) NodeID {
	return b.G.AddNode(Global, NoMethod, class, name)
}

// Object declares an allocation site of class inside method m.
func (b *Builder) Object(m MethodID, name string, class ClassID) NodeID {
	return b.G.AddNode(Object, m, class, name)
}

// Alloc emits v = new o, where o was created with Object.
func (b *Builder) Alloc(v, o NodeID) {
	b.G.AddEdge(Edge{Src: o, Dst: v, Kind: New, Label: NoLabel})
}

// NewObject combines Object and Alloc: it allocates a fresh object of class
// in v's method and assigns it to v, returning the object node.
func (b *Builder) NewObject(v NodeID, name string, class ClassID) NodeID {
	o := b.Object(b.G.Node(v).Method, name, class)
	b.Alloc(v, o)
	return o
}

// Copy emits dst = src, selecting Assign or AssignGlobal from node kinds.
func (b *Builder) Copy(dst, src NodeID) {
	kind := Assign
	if b.G.Node(dst).Kind == Global || b.G.Node(src).Kind == Global {
		kind = AssignGlobal
	}
	b.G.AddEdge(Edge{Src: src, Dst: dst, Kind: kind, Label: NoLabel})
}

// Load emits dst = base.f.
func (b *Builder) Load(dst, base NodeID, f FieldID) {
	b.G.AddEdge(Edge{Src: base, Dst: dst, Kind: Load, Label: int32(f)})
}

// Store emits base.f = src.
func (b *Builder) Store(base NodeID, f FieldID, src NodeID) {
	b.G.AddEdge(Edge{Src: src, Dst: base, Kind: Store, Label: int32(f)})
}

// ArrayLoad emits dst = base[i], collapsing elements into the arr field.
func (b *Builder) ArrayLoad(dst, base NodeID) {
	b.Load(dst, base, b.G.ArrayField())
}

// ArrayStore emits base[i] = src.
func (b *Builder) ArrayStore(base, src NodeID) {
	b.Store(base, b.G.ArrayField(), src)
}

// NullAssign emits v = null, modelled as a per-method allocation of the
// Null class so the new edge stays local.
func (b *Builder) NullAssign(v NodeID) NodeID {
	m := b.G.Node(v).Method
	o, ok := b.nullObjs[m]
	if !ok {
		o = b.Object(m, "null", b.G.NullClass())
		b.nullObjs[m] = o
	}
	b.Alloc(v, o)
	return o
}

// CallSite opens a call site inside caller. Use Arg/Ret (or the Graph
// methods) to wire parameter and return flow, and AddCallTarget to record
// resolved callees.
func (b *Builder) CallSite(caller MethodID, label string) CallSiteID {
	if label == "" {
		b.siteSeq[caller]++
		label = fmt.Sprintf("%s:cs%d", b.G.MethodInfo(caller).Name, b.siteSeq[caller])
	}
	return b.G.AddCallSite(caller, label)
}

// Arg emits formal = actual across call site cs.
func (b *Builder) Arg(cs CallSiteID, actual, formal NodeID) {
	b.G.AddEdge(Edge{Src: actual, Dst: formal, Kind: Entry, Label: int32(cs)})
}

// Ret emits lhs = ret across call site cs.
func (b *Builder) Ret(cs CallSiteID, ret, lhs NodeID) {
	b.G.AddEdge(Edge{Src: ret, Dst: lhs, Kind: Exit, Label: int32(cs)})
}

// Finish validates the constructed graph, freezes it into the immutable
// CSR layout, and returns it. Builders that still grow the graph after the
// statements (on-the-fly call-graph resolution) keep using G and call
// Validate and Freeze themselves.
func (b *Builder) Finish() (*Graph, error) {
	if err := b.G.Validate(); err != nil {
		return nil, err
	}
	b.G.Freeze()
	return b.G, nil
}

// Call wires a full monomorphic call in one step: it opens a call site in
// caller targeting callee, connects actuals to formals and, when both ret
// and lhs are valid, the return value. Slices must have equal length.
func (b *Builder) Call(caller, callee MethodID, label string, actuals, formals []NodeID, ret, lhs NodeID) CallSiteID {
	if len(actuals) != len(formals) {
		panic(fmt.Sprintf("pag: Call %s: %d actuals vs %d formals", label, len(actuals), len(formals)))
	}
	cs := b.CallSite(caller, label)
	b.G.AddCallTarget(cs, callee)
	for i := range actuals {
		b.Arg(cs, actuals[i], formals[i])
	}
	if ret != NoNode && lhs != NoNode {
		b.Ret(cs, ret, lhs)
	}
	return cs
}
