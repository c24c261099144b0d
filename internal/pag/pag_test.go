package pag

import (
	"strings"
	"testing"
)

// buildTiny constructs a two-method PAG exercising every edge kind.
func buildTiny(t *testing.T) (*Builder, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	f := b.G.AddField("A.f")
	g := b.GlobalVar("A.G", cls)

	callee := b.Method("A.callee", cls)
	p := b.Local(callee, "p", cls)
	r := b.Local(callee, "r", cls)
	b.Copy(r, p)

	m := b.Method("A.main", cls)
	v := b.Local(m, "v", cls)
	w := b.Local(m, "w", cls)
	x := b.Local(m, "x", cls)
	o := b.NewObject(v, "o", cls)
	b.Copy(w, v)
	b.Store(w, f, v)
	b.Load(x, w, f)
	b.Copy(g, v)
	b.Call(m, callee, "main:1", []NodeID{v}, []NodeID{p}, r, x)
	b.G.Freeze()

	return b, map[string]NodeID{"v": v, "w": w, "x": x, "o": o, "g": g, "p": p, "r": r}
}

func TestEdgeKindClassification(t *testing.T) {
	local := []EdgeKind{New, Assign, Load, Store}
	global := []EdgeKind{AssignGlobal, Entry, Exit}
	for _, k := range local {
		if !k.IsLocal() || k.IsGlobal() {
			t.Errorf("%v must be local", k)
		}
	}
	for _, k := range global {
		if k.IsLocal() || !k.IsGlobal() {
			t.Errorf("%v must be global", k)
		}
	}
}

func TestBuilderWiring(t *testing.T) {
	b, n := buildTiny(t)
	g := b.G
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// v has: incoming new from o; outgoing assign to w, store to w,
	// assignglobal to G, entry to p.
	var kinds []string
	for _, e := range g.Out(n["v"]) {
		kinds = append(kinds, e.Kind.String())
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"assign", "store", "assignglobal", "entry"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Out(v) kinds = %s, missing %s", joined, want)
		}
	}
	if len(g.In(n["v"])) != 1 || g.In(n["v"])[0].Kind != New {
		t.Errorf("In(v) = %v, want one new edge", g.In(n["v"]))
	}

	if !g.HasGlobalOut(n["v"]) {
		t.Error("v should have a global out edge (entry)")
	}
	if !g.HasGlobalIn(n["x"]) {
		t.Error("x should have a global in edge (exit)")
	}
	if !g.HasLocalIn(n["x"]) || !g.HasLocalEdges(n["x"]) {
		t.Error("x should have local in edges (load)")
	}
	if g.HasLocalEdges(n["g"]) {
		t.Error("global G must have no local edges")
	}
}

// TestDuplicateEdgeSuppression: AddEdge accepts a repeat, and Freeze keeps
// one copy of it.
func TestDuplicateEdgeSuppression(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	m := b.Method("A.m", cls)
	v, w := b.Local(m, "v", cls), b.Local(m, "w", cls)
	b.NewObject(v, "o", cls)
	b.Copy(w, v)
	b.Copy(w, v)
	if got := len(b.G.Edges()); got != 3 {
		t.Fatalf("edge list holds %d records, want 3", got)
	}
	b.G.Freeze()
	if g := b.G; g.NumEdges() != 2 || len(g.Out(v)) != 1 || len(g.In(w)) != 1 {
		t.Errorf("after Freeze: %d edges, Out(v) = %v, In(w) = %v; want the repeat dropped",
			g.NumEdges(), g.Out(v), g.In(w))
	}
}

func TestFieldIndexes(t *testing.T) {
	b, _ := buildTiny(t)
	g := b.G
	f := g.AddField("A.f") // must return the existing ID
	if got := g.FieldName(f); got != "A.f" {
		t.Errorf("FieldName = %q", got)
	}
	if len(g.LoadsOf(f)) != 1 {
		t.Errorf("LoadsOf(f) = %v, want 1 edge", g.LoadsOf(f))
	}
	if len(g.StoresOf(f)) != 1 {
		t.Errorf("StoresOf(f) = %v, want 1 edge", g.StoresOf(f))
	}
}

func TestSubtypeOf(t *testing.T) {
	g := NewGraph()
	object := g.AddClass("Object", NoClass)
	a := g.AddClass("A", object)
	bcls := g.AddClass("B", a)
	c := g.AddClass("C", object)
	tests := []struct {
		c, t ClassID
		want bool
	}{
		{bcls, a, true},
		{bcls, object, true},
		{bcls, bcls, true},
		{a, bcls, false},
		{c, a, false},
		{c, object, true},
	}
	for _, tt := range tests {
		if got := g.SubtypeOf(tt.c, tt.t); got != tt.want {
			t.Errorf("SubtypeOf(%s,%s) = %v, want %v",
				g.ClassInfo(tt.c).Name, g.ClassInfo(tt.t).Name, got, tt.want)
		}
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	m1 := b.Method("A.m1", cls)
	m2 := b.Method("A.m2", cls)
	v1 := b.Local(m1, "v1", cls)
	v2 := b.Local(m2, "v2", cls)
	gvar := b.GlobalVar("A.G", cls)

	// Cross-method assign must be rejected.
	b.G.AddEdge(Edge{Src: v1, Dst: v2, Kind: Assign, Label: NoLabel})
	if err := b.G.Validate(); err == nil {
		t.Error("Validate accepted a cross-method assign edge")
	}

	// Assign touching a global must be rejected.
	b2 := NewBuilder()
	cls2 := b2.Class("A", NoClass)
	m := b2.Method("A.m", cls2)
	v := b2.Local(m, "v", cls2)
	_ = gvar
	g2 := b2.GlobalVar("A.G", cls2)
	b2.G.AddEdge(Edge{Src: v, Dst: g2, Kind: Assign, Label: NoLabel})
	if err := b2.G.Validate(); err == nil {
		t.Error("Validate accepted an assign edge into a global")
	}

	// New edge from a non-object must be rejected.
	b3 := NewBuilder()
	cls3 := b3.Class("A", NoClass)
	m3 := b3.Method("A.m", cls3)
	x := b3.Local(m3, "x", cls3)
	y := b3.Local(m3, "y", cls3)
	b3.G.AddEdge(Edge{Src: x, Dst: y, Kind: New, Label: NoLabel})
	if err := b3.G.Validate(); err == nil {
		t.Error("Validate accepted a new edge from a variable")
	}
}

func TestNullModelling(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	m := b.Method("A.m", cls)
	v := b.Local(m, "v", cls)
	w := b.Local(m, "w", cls)
	o1 := b.NullAssign(v)
	o2 := b.NullAssign(w)
	if o1 != o2 {
		t.Error("null objects within one method must be shared")
	}
	if !b.G.IsNullObject(o1) {
		t.Error("IsNullObject(null) = false")
	}
	if b.G.IsNullObject(v) {
		t.Error("IsNullObject(var) = true")
	}
	m2 := b.Method("A.m2", cls)
	u := b.Local(m2, "u", cls)
	o3 := b.NullAssign(u)
	if o3 == o1 {
		t.Error("null objects must be per-method")
	}
	if err := b.G.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStats(t *testing.T) {
	b, _ := buildTiny(t)
	s := b.G.Stats()
	if s.Methods != 2 {
		t.Errorf("Methods = %d, want 2", s.Methods)
	}
	if s.Objects != 1 || s.GlobalVars != 1 || s.LocalVars != 5 {
		t.Errorf("node counts = O%d V%d G%d, want O1 V5 G1", s.Objects, s.LocalVars, s.GlobalVars)
	}
	if s.Edges[New] != 1 || s.Edges[Assign] != 2 || s.Edges[Load] != 1 ||
		s.Edges[Store] != 1 || s.Edges[AssignGlobal] != 1 || s.Edges[Entry] != 1 || s.Edges[Exit] != 1 {
		t.Errorf("edge counts = %v", s.Edges)
	}
	wantLocality := 100 * 5.0 / 8.0
	if got := s.Locality(); got < wantLocality-0.01 || got > wantLocality+0.01 {
		t.Errorf("Locality = %.2f, want %.2f", got, wantLocality)
	}
	if s.TotalEdges() != 8 {
		t.Errorf("TotalEdges = %d, want 8", s.TotalEdges())
	}
}

func TestCallSiteTargets(t *testing.T) {
	b, _ := buildTiny(t)
	g := b.G
	if g.NumCallSites() != 1 {
		t.Fatalf("NumCallSites = %d, want 1", g.NumCallSites())
	}
	cs := g.CallSiteInfo(0)
	if len(cs.Targets) != 1 {
		t.Fatalf("Targets = %v, want 1", cs.Targets)
	}
	g.AddCallTarget(0, cs.Targets[0]) // duplicate must be ignored
	if len(g.CallSiteInfo(0).Targets) != 1 {
		t.Error("duplicate call target was added")
	}
}

func TestDOTOutput(t *testing.T) {
	b, _ := buildTiny(t)
	var sb strings.Builder
	if err := b.G.WriteDOT(&sb, "tiny"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "shape=box", "entry0", "st(A.f)", "ld(A.f)"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestMarkBodylessRejectsBody: before Freeze, the edge list's flags tell
// MarkBodyless that a method still has a body.
func TestMarkBodylessRejectsBody(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	withBody, without := b.Method("A.body", cls), b.Method("A.none", cls)
	p := b.Local(withBody, "p", cls)
	b.Copy(b.Local(withBody, "r", cls), p)
	if _, err := b.G.MarkBodyless(withBody, []NodeID{p}, NoNode); err == nil || !strings.Contains(err.Error(), "has a body") {
		t.Errorf("MarkBodyless on a method with local edges: err = %v", err)
	}
	if _, err := b.G.MarkBodyless(without, []NodeID{b.Local(without, "q", cls)}, NoNode); err != nil {
		t.Errorf("MarkBodyless on a method without a body: %v", err)
	}
}
