package fixture

import "dynsum/internal/pag"

// Micro-fixtures: each exercises exactly one transition family of the
// points-to state machines, so engine unit tests can pinpoint failures.

// frozen freezes b's graph and wraps it in a Program: fixtures hand out
// frozen programs, which is all the engines analyse.
func frozen(name string, b *pag.Builder) *pag.Program {
	b.G.Freeze()
	return pag.NewProgram(name, b.G)
}

// Micro bundles a tiny PAG with the query variable and the objects that
// must (and must not) be in its points-to set.
type Micro struct {
	Prog  *pag.Program
	Query pag.NodeID
	Want  []pag.NodeID // expected points-to objects of Query
	Not   []pag.NodeID // objects that must NOT be in the points-to set
}

// AssignChain builds o --new--> v0 --assign--> v1 ... --assign--> v(n-1)
// inside one method and queries the last variable.
func AssignChain(n int) *Micro {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	m := b.Method("M.chain", cls)
	v := b.Local(m, "v0", cls)
	o := b.NewObject(v, "o", cls)
	for i := 1; i < n; i++ {
		next := b.Local(m, "v"+itoa(i), cls)
		b.Copy(next, v)
		v = next
	}
	return &Micro{Prog: frozen("assignchain", b), Query: v, Want: []pag.NodeID{o}}
}

// FieldPair builds the canonical store/load pair through an alias:
//
//	a = new A; a.f = x (x = new O1); y = a.f
//
// pts(y) must be {O1}. A second, unrelated base b with b.f = z (z = new O2)
// checks field-sensitivity: O2 must not leak into pts(y).
func FieldPair() *Micro {
	bld := pag.NewBuilder()
	cls := bld.Class("A", pag.NoClass)
	m := bld.Method("M.fields", cls)
	f := bld.G.AddField("A.f")

	a := bld.Local(m, "a", cls)
	bld.NewObject(a, "oa", cls)
	x := bld.Local(m, "x", cls)
	o1 := bld.NewObject(x, "o1", cls)
	bld.Store(a, f, x) // a.f = x
	y := bld.Local(m, "y", cls)
	bld.Load(y, a, f) // y = a.f

	b2 := bld.Local(m, "b", cls)
	bld.NewObject(b2, "ob", cls)
	z := bld.Local(m, "z", cls)
	o2 := bld.NewObject(z, "o2", cls)
	bld.Store(b2, f, z) // b.f = z

	return &Micro{Prog: frozen("fieldpair", bld), Query: y,
		Want: []pag.NodeID{o1}, Not: []pag.NodeID{o2}}
}

// TwoFields checks distinct fields do not alias: a.f = x; y = a.g must
// leave pts(y) empty.
func TwoFields() *Micro {
	bld := pag.NewBuilder()
	cls := bld.Class("A", pag.NoClass)
	m := bld.Method("M.twofields", cls)
	f := bld.G.AddField("A.f")
	g := bld.G.AddField("A.g")

	a := bld.Local(m, "a", cls)
	bld.NewObject(a, "oa", cls)
	x := bld.Local(m, "x", cls)
	o1 := bld.NewObject(x, "o1", cls)
	bld.Store(a, f, x)
	y := bld.Local(m, "y", cls)
	bld.Load(y, a, g)
	return &Micro{Prog: frozen("twofields", bld), Query: y, Not: []pag.NodeID{o1}}
}

// CallReturn builds caller/callee flow through entry and exit edges:
//
//	callee(p) { return p }            (identity)
//	caller    { x = new O; y = callee(x) }
//
// pts(y) = {O}.
func CallReturn() *Micro {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	callee := b.Method("M.id", cls)
	p := b.Local(callee, "p", cls)
	retv := b.Local(callee, "ret", cls)
	b.Copy(retv, p)

	caller := b.Method("M.caller", cls)
	x := b.Local(caller, "x", cls)
	o := b.NewObject(x, "o", cls)
	y := b.Local(caller, "y", cls)
	b.Call(caller, callee, "caller:1", []pag.NodeID{x}, []pag.NodeID{p}, retv, y)
	return &Micro{Prog: frozen("callreturn", b), Query: y, Want: []pag.NodeID{o}}
}

// ContextSeparation is the classic context-sensitivity litmus test:
//
//	id(p) { return p }
//	main  { a = new O1; b = new O2; x = id(a); y = id(b) }
//
// A context-sensitive analysis must report pts(x)={O1} without O2.
func ContextSeparation() *Micro {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	id := b.Method("M.id", cls)
	p := b.Local(id, "p", cls)
	retv := b.Local(id, "ret", cls)
	b.Copy(retv, p)

	main := b.Method("M.main", cls)
	a := b.Local(main, "a", cls)
	o1 := b.NewObject(a, "o1", cls)
	bb := b.Local(main, "b", cls)
	o2 := b.NewObject(bb, "o2", cls)
	x := b.Local(main, "x", cls)
	y := b.Local(main, "y", cls)
	b.Call(main, id, "main:1", []pag.NodeID{a}, []pag.NodeID{p}, retv, x)
	b.Call(main, id, "main:2", []pag.NodeID{bb}, []pag.NodeID{p}, retv, y)
	return &Micro{Prog: frozen("ctxsep", b), Query: x,
		Want: []pag.NodeID{o1}, Not: []pag.NodeID{o2}}
}

// GlobalFlow routes an object through a static variable; contexts are
// cleared across the assignglobal edges, so the flow is context-insensitive
// but must still be found.
//
//	writer() { x = new O; G = x }
//	reader() { y = G }
func GlobalFlow() *Micro {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	g := b.GlobalVar("A.G", cls)

	writer := b.Method("M.writer", cls)
	x := b.Local(writer, "x", cls)
	o := b.NewObject(x, "o", cls)
	b.Copy(g, x) // assignglobal

	reader := b.Method("M.reader", cls)
	y := b.Local(reader, "y", cls)
	b.Copy(y, g) // assignglobal
	return &Micro{Prog: frozen("globalflow", b), Query: y, Want: []pag.NodeID{o}}
}

// PointsToCycle builds a cyclic points-to dependency through assignments:
//
//	v = new O; v = w; w = v
//
// The cycle must not diverge and pts(v) must still contain O.
func PointsToCycle() *Micro {
	b := pag.NewBuilder()
	cls := b.Class("A", pag.NoClass)
	m := b.Method("M.cycle", cls)
	v := b.Local(m, "v", cls)
	w := b.Local(m, "w", cls)
	o := b.NewObject(v, "o", cls)
	b.Copy(v, w)
	b.Copy(w, v)
	return &Micro{Prog: frozen("ptcycle", b), Query: v, Want: []pag.NodeID{o}}
}

// FieldCycleThroughCall builds the mutual recursion between points-to and
// alias queries that defeats naive cycle cutoffs: the object is stored into
// a container field in one method and read back in another, with the
// container passed through calls in both directions.
func FieldCycleThroughCall() *Micro {
	b := pag.NewBuilder()
	cls := b.Class("Box", pag.NoClass)
	f := b.G.AddField("Box.val")

	// put(box, v) { box.val = v }
	put := b.Method("Box.put", cls)
	putBox := b.Local(put, "box", cls)
	putV := b.Local(put, "v", cls)
	b.Store(putBox, f, putV)

	// getv(box) { return box.val }
	getv := b.Method("Box.get", cls)
	getBox := b.Local(getv, "box", cls)
	getRet := b.Local(getv, "ret", cls)
	b.Load(getRet, getBox, f)

	// main { box = new Box; o = new O; put(box,o); r = getv(box) }
	main := b.Method("Box.main", cls)
	box := b.Local(main, "box", cls)
	b.NewObject(box, "obox", cls)
	v := b.Local(main, "v", cls)
	o := b.NewObject(v, "o", cls)
	r := b.Local(main, "r", cls)
	b.Call(main, put, "main:1", []pag.NodeID{box, v}, []pag.NodeID{putBox, putV}, pag.NoNode, pag.NoNode)
	b.Call(main, getv, "main:2", []pag.NodeID{box}, []pag.NodeID{getBox}, getRet, r)
	return &Micro{Prog: frozen("fieldcall", b), Query: r, Want: []pag.NodeID{o}}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}
