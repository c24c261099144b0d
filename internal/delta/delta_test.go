package delta

import (
	"errors"
	"slices"
	"testing"

	"dynsum/internal/pag"
)

// base builds a small frozen program:
//
//	method A: oa --new--> a, assign cycle a->b->c->a, store a.f = c
//	method B: formal p, ret r, assign p->r
//	call site in A targeting B: entry a->p, exit r->lhs
//	global G with an assignglobal from A's c
//
// so there is a nontrivial SCC in A, cross-method global edges, and a
// field edge — everything Apply has to reason about.
type baseFixture struct {
	g                *pag.Graph
	clsC             pag.ClassID
	f                pag.FieldID
	mA, mB           pag.MethodID
	oa, a, b, c, lhs pag.NodeID
	p, r             pag.NodeID
	glob             pag.NodeID
	cs               pag.CallSiteID
}

func buildBase(t *testing.T) *baseFixture {
	t.Helper()
	bd := pag.NewBuilder()
	fx := &baseFixture{}
	fx.clsC = bd.Class("C", pag.NoClass)
	fx.f = bd.G.AddField("C.f")
	fx.mA = bd.Method("A", fx.clsC)
	fx.mB = bd.Method("B", fx.clsC)
	fx.a = bd.Local(fx.mA, "a", fx.clsC)
	fx.b = bd.Local(fx.mA, "b", fx.clsC)
	fx.c = bd.Local(fx.mA, "c", fx.clsC)
	fx.lhs = bd.Local(fx.mA, "lhs", fx.clsC)
	fx.oa = bd.NewObject(fx.a, "oa", fx.clsC)
	bd.Copy(fx.b, fx.a)
	bd.Copy(fx.c, fx.b)
	bd.Copy(fx.a, fx.c) // cycle a->b->c->a
	bd.Store(fx.a, fx.f, fx.c)
	fx.p = bd.Local(fx.mB, "p", fx.clsC)
	fx.r = bd.Local(fx.mB, "r", fx.clsC)
	bd.Copy(fx.r, fx.p)
	fx.cs = bd.Call(fx.mA, fx.mB, "A:cs0", []pag.NodeID{fx.a}, []pag.NodeID{fx.p}, fx.r, fx.lhs)
	fx.glob = bd.GlobalVar("G.g", fx.clsC)
	bd.Copy(fx.glob, fx.c)
	g, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fx.g = g
	return fx
}

// edgeSet gathers a span into a sorted copy for order-insensitive
// comparison.
func edgeSet(es []pag.Edge) []pag.Edge {
	out := append([]pag.Edge{}, es...)
	return dedupEdges(out)
}

// checkBaseViewMatches compares the overlay's base view against a freshly
// built reference graph node by node, all four spans.
func checkBaseViewMatches(t *testing.T, tag string, o *Overlay, ref *pag.Graph) {
	t.Helper()
	if o.NumNodes() != ref.NumNodes() {
		t.Fatalf("%s: overlay has %d nodes, reference %d", tag, o.NumNodes(), ref.NumNodes())
	}
	for n := 0; n < ref.NumNodes(); n++ {
		id := pag.NodeID(n)
		pairs := []struct {
			name     string
			ov, want []pag.Edge
		}{
			{"localOut", o.LocalOut(id, false), ref.LocalOut(id)},
			{"globalOut", o.GlobalOut(id, false), ref.GlobalOut(id)},
			{"localIn", o.LocalIn(id, false), ref.LocalIn(id)},
			{"globalIn", o.GlobalIn(id, false), ref.GlobalIn(id)},
		}
		for _, p := range pairs {
			got, want := edgeSet(p.ov), edgeSet(p.want)
			if !slices.Equal(got, want) {
				t.Errorf("%s: node %d %s = %v, want %v", tag, n, p.name, got, want)
			}
		}
	}
}

func TestApplyAddMethodMatchesRebuild(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()

	// Epoch: load method D calling B — a fresh allocation piped into B's
	// formal, the return captured. B receives a new inbound entry edge
	// (its formal already has one, so no flag flips) and a new outbound
	// exit edge target.
	l := ov.NewLog()
	mD := l.AddMethod("D", fx.clsC)
	d1 := l.AddNode(pag.Local, mD, fx.clsC, "d1")
	od := l.AddNode(pag.Object, mD, fx.clsC, "od")
	dl := l.AddNode(pag.Local, mD, fx.clsC, "dl")
	cs := l.AddCallSite(pag.CallSite{Caller: mD, Name: "D:cs0", Targets: []pag.MethodID{fx.mB}})
	l.AddEdge(pag.Edge{Src: od, Dst: d1, Kind: pag.New, Label: pag.NoLabel})
	l.AddEdge(pag.Edge{Src: d1, Dst: fx.p, Kind: pag.Entry, Label: int32(cs)})
	l.AddEdge(pag.Edge{Src: fx.r, Dst: dl, Kind: pag.Exit, Label: int32(cs)})
	st, err := ov.Apply(l)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewMethods != 1 || st.NewNodes != 3 || st.NewEdges != 3 {
		t.Errorf("ApplyStats = %+v, want 1 method / 3 nodes / 3 edges", st)
	}
	// B's formal and return already touched global edges: nothing flips,
	// no summaries to invalidate.
	if st.FlagFlips != 0 || len(st.TouchedMethods) != 0 {
		t.Errorf("expected no flag flips / touched methods, got %+v", st)
	}
	if st.DissolvedSCCs != 0 {
		t.Errorf("a purely global epoch dissolved %d SCCs", st.DissolvedSCCs)
	}

	// Reference: the same program built from scratch.
	ref := rebuildWith(t, fx, func(bd *pag.Builder) {
		mD := bd.Method("D", fx.clsC)
		d1 := bd.Local(mD, "d1", fx.clsC)
		bd.Object(mD, "od", fx.clsC)
		dl := bd.Local(mD, "dl", fx.clsC)
		cs := bd.G.AddCallSite(mD, "D:cs0")
		bd.G.AddCallTarget(cs, fx.mB)
		bd.G.AddEdge(pag.Edge{Src: d1 + 1, Dst: d1, Kind: pag.New, Label: pag.NoLabel}) // od is d1+1
		bd.G.AddEdge(pag.Edge{Src: d1, Dst: fx.p, Kind: pag.Entry, Label: int32(cs)})
		bd.G.AddEdge(pag.Edge{Src: fx.r, Dst: dl, Kind: pag.Exit, Label: int32(cs)})
	})
	checkBaseViewMatches(t, "add-method", ov, ref)

	// The overlay's metadata resolves the new IDs.
	if got := ov.NodeString(d1); got != "D.d1" {
		t.Errorf("NodeString(d1) = %q", got)
	}
	if ov.Node(od).Kind != pag.Object {
		t.Errorf("added object lost its kind")
	}
}

// rebuildWith replays the base fixture's construction plus extra into a
// fresh frozen graph with identical IDs.
func rebuildWith(t *testing.T, fx *baseFixture, extra func(*pag.Builder)) *pag.Graph {
	t.Helper()
	bd := pag.NewBuilder()
	cls := bd.Class("C", pag.NoClass)
	f := bd.G.AddField("C.f")
	mA := bd.Method("A", cls)
	mB := bd.Method("B", cls)
	a := bd.Local(mA, "a", cls)
	b := bd.Local(mA, "b", cls)
	c := bd.Local(mA, "c", cls)
	lhs := bd.Local(mA, "lhs", cls)
	bd.NewObject(a, "oa", cls)
	bd.Copy(b, a)
	bd.Copy(c, b)
	bd.Copy(a, c)
	bd.Store(a, f, c)
	p := bd.Local(mB, "p", cls)
	r := bd.Local(mB, "r", cls)
	bd.Copy(r, p)
	bd.Call(mA, mB, "A:cs0", []pag.NodeID{a}, []pag.NodeID{p}, r, lhs)
	glob := bd.GlobalVar("G.g", cls)
	bd.Copy(glob, c)
	if extra != nil {
		extra(bd)
	}
	g, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRedefineDropsOwnedEdges(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()

	// Recompile A: the new body allocates into a fresh temp and returns
	// it through the same lhs; the old cycle, store, call edges and the
	// assignglobal all vanish.
	l := ov.NewLog()
	l.RedefineMethod(fx.mA)
	t2 := l.AddNode(pag.Local, fx.mA, fx.clsC, "t2")
	o2 := l.AddNode(pag.Object, fx.mA, fx.clsC, "o2")
	l.AddEdge(pag.Edge{Src: o2, Dst: t2, Kind: pag.New, Label: pag.NoLabel})
	l.AddEdge(pag.Edge{Src: t2, Dst: fx.lhs, Kind: pag.Assign, Label: pag.NoLabel})
	st, err := ov.Apply(l)
	if err != nil {
		t.Fatal(err)
	}
	if st.RedefinedMethods != 1 {
		t.Errorf("RedefinedMethods = %d", st.RedefinedMethods)
	}
	// Everything A owned is gone: new, 3 cycle assigns, store, entry,
	// exit, assignglobal = 8 edges.
	if st.DroppedEdges != 8 {
		t.Errorf("DroppedEdges = %d, want 8", st.DroppedEdges)
	}
	if !slices.Contains(st.TouchedMethods, fx.mA) {
		t.Errorf("redefined method not in TouchedMethods %v", st.TouchedMethods)
	}
	if slices.Contains(st.TouchedMethods, fx.mB) {
		t.Errorf("untouched method B invalidated: %v", st.TouchedMethods)
	}
	if st.DissolvedSCCs != 1 {
		t.Errorf("DissolvedSCCs = %d, want 1 (the a->b->c cycle)", st.DissolvedSCCs)
	}

	ref := rebuildWithRedefinedA(t, fx)
	checkBaseViewMatches(t, "redefine", ov, ref)

	// B's formal lost its only inbound entry edge; span-derived flags see
	// that exactly.
	if ov.HasGlobalIn(fx.p, false) {
		t.Errorf("p still reports an inbound global edge after the caller was redefined")
	}
}

// rebuildWithRedefinedA builds the post-redefinition program from scratch
// (same IDs: redefinition keeps all old nodes, adds t2/o2).
func rebuildWithRedefinedA(t *testing.T, fx *baseFixture) *pag.Graph {
	t.Helper()
	bd := pag.NewBuilder()
	cls := bd.Class("C", pag.NoClass)
	bd.G.AddField("C.f")
	mA := bd.Method("A", cls)
	mB := bd.Method("B", cls)
	bd.Local(mA, "a", cls)
	bd.Local(mA, "b", cls)
	bd.Local(mA, "c", cls)
	lhs := bd.Local(mA, "lhs", cls)
	bd.Object(mA, "oa", cls)
	p := bd.Local(mB, "p", cls)
	r := bd.Local(mB, "r", cls)
	bd.Copy(r, p)
	bd.G.AddCallSite(mA, "A:cs0") // metadata survives; its edges do not
	bd.GlobalVar("G.g", cls)
	t2 := bd.Local(mA, "t2", cls)
	o2 := bd.Object(mA, "o2", cls)
	bd.Alloc(t2, o2)
	bd.Copy(lhs, t2)
	g, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCondensedViewRepair(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	cond := fx.g.Condensation()
	if cond.Trivial() {
		t.Fatal("fixture lost its assign SCC")
	}
	rep := cond.Rep(fx.a)
	if cond.Rep(fx.b) != rep || cond.Rep(fx.c) != rep {
		t.Fatal("a, b, c not collapsed")
	}

	// An epoch adding a local edge in A dissolves A's SCC; B keeps its
	// (trivial) representatives and the base condensation keeps serving
	// untouched nodes.
	l := ov.NewLog()
	t3 := l.AddNode(pag.Local, fx.mA, fx.clsC, "t3")
	l.AddEdge(pag.Edge{Src: fx.b, Dst: t3, Kind: pag.Assign, Label: pag.NoLabel})
	st, err := ov.Apply(l)
	if err != nil {
		t.Fatal(err)
	}
	if st.DissolvedSCCs != 1 {
		t.Fatalf("DissolvedSCCs = %d, want 1", st.DissolvedSCCs)
	}
	for _, n := range []pag.NodeID{fx.a, fx.b, fx.c, t3} {
		if got := ov.Rep(n); got != n {
			t.Errorf("Rep(%d) = %d after dissolution, want identity", n, got)
		}
	}
	if ov.Rep(fx.p) != cond.Rep(fx.p) {
		t.Errorf("untouched method's rep changed")
	}
	// Every condensed-view endpoint must be a current representative, and
	// the condensed view must now equal the base view on A's singleton
	// nodes (modulo rep-mapping, which is identity there).
	for n := 0; n < ov.NumNodes(); n++ {
		id := pag.NodeID(n)
		if ov.Rep(id) != id {
			continue
		}
		for _, e := range ov.LocalOut(id, true) {
			if ov.Rep(e.Src) != e.Src || ov.Rep(e.Dst) != e.Dst {
				t.Errorf("condensed edge %v has non-representative endpoint", e)
			}
			if e.Kind == pag.Assign && e.Src == e.Dst {
				t.Errorf("condensed self-loop %v survived", e)
			}
		}
		for _, e := range ov.GlobalOut(id, true) {
			if ov.Rep(e.Src) != e.Src || ov.Rep(e.Dst) != e.Dst {
				t.Errorf("condensed global edge %v has non-representative endpoint", e)
			}
		}
	}
	if st.TouchedMethods[0] != fx.mA || len(st.TouchedMethods) != 1 {
		t.Errorf("TouchedMethods = %v, want [A]", st.TouchedMethods)
	}
}

func TestStaleAndInvalidLogsRejected(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	l1 := ov.NewLog()
	l1.AddMethod("D", fx.clsC)
	stale := ov.NewLog() // created before l1 lands, same position
	stale.AddMethod("E", fx.clsC)
	if _, err := ov.Apply(l1); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Apply(stale); err == nil {
		t.Error("stale log accepted")
	}

	bad := ov.NewLog()
	bad.AddEdge(pag.Edge{Src: fx.a, Dst: fx.p, Kind: pag.Assign, Label: pag.NoLabel})
	if _, err := ov.Apply(bad); err == nil {
		t.Error("cross-method assign accepted")
	}
	bad2 := ov.NewLog()
	bad2.AddEdge(pag.Edge{Src: 9999, Dst: fx.a, Kind: pag.Assign, Label: pag.NoLabel})
	if _, err := ov.Apply(bad2); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	// A rejected log leaves the overlay untouched.
	if got := ov.Epoch(); got != 1 {
		t.Errorf("epoch = %d after rejected logs, want 1", got)
	}
}

func TestUnfrozenGraphRejected(t *testing.T) {
	bd := pag.NewBuilder()
	cls := bd.Class("C", pag.NoClass)
	m := bd.Method("M", cls)
	bd.Local(m, "x", cls)
	if _, err := NewBase(bd.G); err == nil {
		t.Fatal("base over an unfrozen graph accepted")
	}
}

func TestCompactRoundTrip(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	l := ov.NewLog()
	mD := l.AddMethod("D", fx.clsC)
	d1 := l.AddNode(pag.Local, mD, fx.clsC, "d1")
	od := l.AddNode(pag.Object, mD, fx.clsC, "od")
	cs := l.AddCallSite(pag.CallSite{Caller: mD, Name: "D:cs0", Targets: []pag.MethodID{fx.mB}})
	l.AddEdge(pag.Edge{Src: od, Dst: d1, Kind: pag.New, Label: pag.NoLabel})
	l.AddEdge(pag.Edge{Src: d1, Dst: fx.p, Kind: pag.Entry, Label: int32(cs)})
	if _, err := ov.Apply(l); err != nil {
		t.Fatal(err)
	}

	ng, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !ng.Frozen() {
		t.Fatal("compacted graph not frozen")
	}
	if ng.NumNodes() != ov.NumNodes() || ng.NumMethods() != ov.NumMethods() {
		t.Fatalf("compacted counts diverge: %d/%d nodes, %d/%d methods",
			ng.NumNodes(), ov.NumNodes(), ng.NumMethods(), ov.NumMethods())
	}
	// The base graph itself was never written.
	if fx.g.NumMethods() != 2 || fx.g.NumCallSites() != 1 {
		t.Fatalf("base graph metadata mutated: %d methods, %d call sites",
			fx.g.NumMethods(), fx.g.NumCallSites())
	}
	for n := 0; n < ng.NumNodes(); n++ {
		id := pag.NodeID(n)
		if got, want := edgeSet(ng.LocalOut(id)), edgeSet(ov.LocalOut(id, false)); !slices.Equal(got, want) {
			t.Errorf("compacted node %d localOut %v != overlay %v", n, got, want)
		}
		if got, want := edgeSet(ng.GlobalOut(id)), edgeSet(ov.GlobalOut(id, false)); !slices.Equal(got, want) {
			t.Errorf("compacted node %d globalOut %v != overlay %v", n, got, want)
		}
	}
	// Derived identifiers survive the copy.
	if fx.g.NullClassID() != pag.NoClass && ng.NullClassID() == pag.NoClass {
		t.Error("compacted graph lost the Null class")
	}
	if ng.Condensation() == nil {
		t.Error("compacted graph has no condensation")
	}
}

func TestFrozenPanicIsTyped(t *testing.T) {
	fx := buildBase(t)
	defer func() {
		r := recover()
		fe, ok := r.(*pag.FrozenError)
		if !ok {
			t.Fatalf("panic = %v (%T), want *pag.FrozenError", r, r)
		}
		if !errors.Is(fe, pag.ErrFrozen) {
			t.Fatal("panic does not wrap pag.ErrFrozen")
		}
	}()
	fx.g.AddEdge(pag.Edge{Src: fx.a, Dst: fx.b, Kind: pag.Assign, Label: pag.NoLabel})
}

func TestStatsAndFraction(t *testing.T) {
	fx := buildBase(t)
	ob, err := NewBase(fx.g)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	if ov.Fraction() != 0 {
		t.Errorf("fresh overlay fraction = %v", ov.Fraction())
	}
	l := ov.NewLog()
	t3 := l.AddNode(pag.Local, fx.mA, fx.clsC, "t3")
	l.AddEdge(pag.Edge{Src: fx.b, Dst: t3, Kind: pag.Assign, Label: pag.NoLabel})
	if _, err := ov.Apply(l); err != nil {
		t.Fatal(err)
	}
	s := ov.Stats()
	if s.Epochs != 1 || s.AddedNodes != 1 || s.PatchedNodes == 0 || s.PatchedMethods != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.OverlayFraction() <= 0 || ov.Fraction() != s.OverlayFraction() {
		t.Errorf("fraction = %v / %v", ov.Fraction(), s.OverlayFraction())
	}
}
