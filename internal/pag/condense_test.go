package pag

import (
	"fmt"
	"testing"
)

// buildCycleGraph: one method with an assign cycle a->b->c->a, a spur
// in (x->a) and out (c->y), an object allocated into a, a store/load
// pair on b, and a global edge touching c.
func buildCycleGraph(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m := b.Method("M", cls)
	nodes := map[string]NodeID{}
	for _, name := range []string{"a", "bb", "c", "x", "y", "base"} {
		nodes[name] = b.Local(m, name, cls)
	}
	nodes["g"] = b.GlobalVar("G.g", cls)
	b.Copy(nodes["bb"], nodes["a"])
	b.Copy(nodes["c"], nodes["bb"])
	b.Copy(nodes["a"], nodes["c"])
	b.Copy(nodes["a"], nodes["x"])
	b.Copy(nodes["y"], nodes["c"])
	nodes["o"] = b.NewObject(nodes["a"], "o", cls)
	f := b.G.AddField("C.f")
	b.Store(nodes["base"], f, nodes["bb"])
	b.Copy(nodes["g"], nodes["c"]) // assignglobal out of the cycle
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
	b.G.Freeze()
	return b.G, nodes
}

func TestCondenseCollapsesAssignCycle(t *testing.T) {
	g, n := buildCycleGraph(t)
	c := g.Condensation()
	if c == nil {
		t.Fatal("frozen graph has no condensation")
	}
	if c.Trivial() {
		t.Fatal("cycle graph reported trivial")
	}
	ra, rb, rc := c.Rep(n["a"]), c.Rep(n["bb"]), c.Rep(n["c"])
	if ra != rb || rb != rc {
		t.Fatalf("cycle members have distinct reps: %d %d %d", ra, rb, rc)
	}
	if want := min(n["a"], min(n["bb"], n["c"])); ra != want {
		t.Errorf("rep = %d, want smallest member %d", ra, want)
	}
	for _, name := range []string{"x", "y", "o", "base", "g"} {
		if c.Rep(n[name]) != n[name] {
			t.Errorf("%s: singleton node got rep %d", name, c.Rep(n[name]))
		}
	}
	s := c.Stats()
	if s.SCCs != 1 || s.LargestSCC != 3 || s.CollapsedNodes != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Reps != s.Nodes-2 {
		t.Errorf("Reps = %d, want %d", s.Reps, s.Nodes-2)
	}
}

func TestCondensedAdjacency(t *testing.T) {
	g, n := buildCycleGraph(t)
	c := g.Condensation()
	r := c.Rep(n["a"])

	// The cycle's internal assign edges must be gone; the spurs, the new
	// edge and the store must survive with rep-mapped endpoints.
	for _, e := range c.LocalOut(r) {
		if e.Kind == Assign && e.Src == e.Dst {
			t.Errorf("self-loop assign survived: %v", e)
		}
		if e.Src != r {
			t.Errorf("condensed out-edge source %d != rep %d", e.Src, r)
		}
	}
	wantOut := map[Edge]bool{
		{Src: r, Dst: n["y"], Kind: Assign, Label: NoLabel}:       true,
		{Src: r, Dst: n["base"], Kind: Store, Label: 0}:           true,
		{Src: r, Dst: n["g"], Kind: AssignGlobal, Label: NoLabel}: true,
	}
	got := map[Edge]bool{}
	for _, e := range c.LocalOut(r) {
		got[e] = true
	}
	for _, e := range c.GlobalOut(r) {
		got[e] = true
	}
	for e := range wantOut {
		if !got[e] {
			t.Errorf("condensed out-edges missing %v (have %v)", e, got)
		}
	}
	wantIn := map[Edge]bool{
		{Src: n["x"], Dst: r, Kind: Assign, Label: NoLabel}: true,
		{Src: n["o"], Dst: r, Kind: New, Label: NoLabel}:    true,
	}
	got = map[Edge]bool{}
	for _, e := range c.LocalIn(r) {
		got[e] = true
	}
	for e := range wantIn {
		if !got[e] {
			t.Errorf("condensed in-edges missing %v (have %v)", e, got)
		}
	}

	// Aggregated flags: the cycle rep must see the member c's global out.
	if !c.HasGlobalOut(r) {
		t.Error("rep lost member's global-out flag")
	}
	if !c.HasLocalEdges(r) {
		t.Error("rep lost local-edge flags")
	}

	// Non-representatives expose empty condensed spans.
	for _, name := range []string{"bb", "c"} {
		if m := n[name]; c.Rep(m) != m {
			if len(c.LocalOut(m))+len(c.LocalIn(m))+len(c.GlobalOut(m))+len(c.GlobalIn(m)) != 0 {
				t.Errorf("non-rep %s has condensed edges", name)
			}
		}
	}
}

func TestCondenseTrivialAliasesBase(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m := b.Method("M", cls)
	v := b.Local(m, "v", cls)
	w := b.Local(m, "w", cls)
	b.NewObject(v, "o", cls)
	b.Copy(w, v) // chain, no cycle
	b.G.Freeze()
	c := b.G.Condensation()
	if c == nil || !c.Trivial() {
		t.Fatal("acyclic graph should have a trivial condensation")
	}
	if c.Rep(w) != w || c.Rep(v) != v {
		t.Error("trivial Rep is not the identity")
	}
	if got, want := fmt.Sprint(c.LocalOut(v)), fmt.Sprint(b.G.LocalOut(v)); got != want {
		t.Errorf("trivial condensed adjacency diverges: %s != %s", got, want)
	}
	s := c.Stats()
	if s.SCCs != 0 || s.CollapsedNodes != 0 || s.Reps != s.Nodes {
		t.Errorf("trivial stats = %+v", s)
	}
	if s.LocalEdges != s.CondensedLocalEdges {
		t.Errorf("trivial local edges %d != %d", s.LocalEdges, s.CondensedLocalEdges)
	}
}

func TestCondenseMutableGraphHasNone(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m := b.Method("M", cls)
	b.Local(m, "v", cls)
	if b.G.Condensation() != nil {
		t.Error("unfrozen graph has a condensation")
	}
	if s := b.G.CondenseStats(); s.Nodes != 0 {
		t.Errorf("unfrozen CondenseStats = %+v", s)
	}
}

// TestCondenseDeterministic: identical graphs condense identically.
func TestCondenseDeterministic(t *testing.T) {
	g1, n1 := buildCycleGraph(t)
	g2, _ := buildCycleGraph(t)
	for i := 0; i < g1.NumNodes(); i++ {
		if g1.Condensation().Rep(NodeID(i)) != g2.Condensation().Rep(NodeID(i)) {
			t.Fatalf("rep of node %d differs between identical graphs", i)
		}
	}
	r := g1.Condensation().Rep(n1["a"])
	if fmt.Sprint(g1.Condensation().LocalOut(r)) != fmt.Sprint(g2.Condensation().LocalOut(r)) {
		t.Error("condensed adjacency order differs between identical graphs")
	}
}

// TestCondenseLargeCycle exercises the iterative Tarjan on a cycle far
// deeper than any recursion limit, plus chords.
func TestCondenseLargeCycle(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m := b.Method("M", cls)
	const n = 50_000
	vars := make([]NodeID, n)
	for i := range vars {
		vars[i] = b.Local(m, fmt.Sprintf("v%d", i), cls)
	}
	for i := 0; i+1 < n; i++ {
		b.Copy(vars[i+1], vars[i])
	}
	b.Copy(vars[0], vars[n-1])
	for k := 5; k+1 < n; k += 5 {
		b.Copy(vars[k-1], vars[k])
	}
	b.G.Freeze()
	s := b.G.CondenseStats()
	if s.SCCs != 1 || s.LargestSCC != n {
		t.Fatalf("large cycle stats = %+v", s)
	}
	if s.CondensedLocalEdges != 0 {
		t.Errorf("pure cycle left %d condensed local edges", s.CondensedLocalEdges)
	}
}
