package pag

import (
	"errors"
	"strings"
	"testing"
)

// buildSmall constructs a two-method graph with both local and global
// edges touching one node, so every partition accessor has something to
// return.
func buildSmall(t *testing.T) (*Builder, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("C", NoClass)
	m1 := b.Method("m1", cls)
	m2 := b.Method("m2", cls)
	v := b.Local(m1, "v", cls)
	w := b.Local(m1, "w", cls)
	x := b.Local(m2, "x", cls)
	o := b.Object(m1, "o", cls)
	f := b.G.AddField("f")
	b.Alloc(v, o)
	b.Copy(w, v)
	b.Load(w, v, f)
	cs := b.CallSite(m1, "")
	b.Arg(cs, v, x) // global edge out of v
	b.Ret(cs, x, w) // global edge into w
	return b, v, w
}

// TestPartitionAccessorsBothForms: each node's out- and in-spans split
// into their local and global forms, locals first.
func TestPartitionAccessorsBothForms(t *testing.T) {
	b, v, w := buildSmall(t)
	g := b.G
	g.Freeze()
	// v: out = {assign->w, load->w (local)} + {entry->x (global)}.
	if got := len(g.LocalOut(v)); got != 2 {
		t.Errorf("LocalOut(v) = %d edges, want 2", got)
	}
	if got := len(g.GlobalOut(v)); got != 1 || g.GlobalOut(v)[0].Kind != Entry {
		t.Errorf("GlobalOut(v) = %v, want one entry edge", g.GlobalOut(v))
	}
	// w: in = {assign, load (local)} + {exit (global)}.
	if got := len(g.LocalIn(w)); got != 2 {
		t.Errorf("LocalIn(w) = %d edges, want 2", got)
	}
	if got := len(g.GlobalIn(w)); got != 1 || g.GlobalIn(w)[0].Kind != Exit {
		t.Errorf("GlobalIn(w) = %v, want one exit edge", g.GlobalIn(w))
	}
	// Concatenation order: locals first.
	out := g.Out(v)
	if len(out) != 3 || !out[0].Kind.IsLocal() || !out[1].Kind.IsLocal() || out[2].Kind.IsLocal() {
		t.Errorf("Out(v) = %v, want locals-first partition", out)
	}
}

// TestAdjacencyIsAppendSafe: returned slices are capacity-clamped, so an
// append by a confused caller copies instead of overwriting the
// neighbouring node's edges (the "must not be mutated" doc promise, now
// enforced for the append case).
func TestAdjacencyIsAppendSafe(t *testing.T) {
	b, v, w := buildSmall(t)
	g := b.G
	g.Freeze()
	for _, s := range [][]Edge{g.Out(v), g.In(w), g.LocalOut(v), g.GlobalOut(v), g.LocalIn(w), g.GlobalIn(w), g.Edges()} {
		if len(s) == 0 {
			continue
		}
		if cap(s) != len(s) {
			t.Fatalf("adjacency slice has spare capacity %d > len %d", cap(s), len(s))
		}
	}
	before := append([]Edge(nil), g.Out(w)...)
	_ = append(g.Out(v), Edge{Kind: Assign}) // must copy, not clobber
	after := g.Out(w)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("append through Out(v) corrupted Out(w)")
		}
	}
}

func TestFrozenGraphPanicsOnMutation(t *testing.T) {
	b, v, _ := buildSmall(t)
	g := b.G
	g.Freeze()
	g.Freeze() // idempotent

	mustPanic := func(op string, f func()) *FrozenError {
		t.Helper()
		var got *FrozenError
		func() {
			defer func() {
				t.Helper()
				r := recover()
				if r == nil {
					t.Fatalf("%s on a frozen graph did not panic", op)
				}
				fe, ok := r.(*FrozenError)
				if !ok {
					t.Fatalf("%s panic = %v (%T), want *FrozenError", op, r, r)
				}
				if !errors.Is(fe, ErrFrozen) {
					t.Fatalf("%s panic does not wrap ErrFrozen", op)
				}
				if fe.Op != op || !strings.Contains(fe.Error(), "frozen") {
					t.Fatalf("%s panic = %v, want op %q in a frozen-graph message", op, fe, op)
				}
				got = fe
			}()
			f()
		}()
		return got
	}
	if fe := mustPanic("AddNode", func() { g.AddNode(Local, 0, NoClass, "z") }); fe.Method != 0 {
		t.Errorf("AddNode FrozenError.Method = %d, want 0", fe.Method)
	}
	fe := mustPanic("AddEdge", func() { g.AddEdge(Edge{Src: v, Dst: v, Kind: Assign, Label: NoLabel}) })
	if fe.Node != v {
		t.Errorf("AddEdge FrozenError.Node = %d, want %d", fe.Node, v)
	}
	if !strings.Contains(fe.Error(), g.NodeString(v)) {
		t.Errorf("AddEdge FrozenError message %q does not name node %s", fe.Error(), g.NodeString(v))
	}
}

func TestFrozenHasEdgeAndLayout(t *testing.T) {
	b, v, w := buildSmall(t)
	g := b.G
	g.Freeze()
	have := Edge{Src: v, Dst: w, Kind: Assign, Label: NoLabel}
	haveGlobal := g.GlobalOut(v)[0]
	if !g.HasEdge(have) || !g.HasEdge(haveGlobal) {
		t.Error("HasEdge lost edges after freeze")
	}
	if g.HasEdge(Edge{Src: w, Dst: v, Kind: Assign, Label: NoLabel}) {
		t.Error("HasEdge invented an edge after freeze")
	}
	l := g.Layout()
	if l.EdgeSlots != 2*g.NumEdges() {
		t.Errorf("EdgeSlots = %d, want %d", l.EdgeSlots, 2*g.NumEdges())
	}
	// 12-byte edges plus four int32 offset arrays over the nodes.
	if n := g.NumNodes(); l.AdjacencyBytes != 12*l.EdgeSlots+4*(4*n+2) {
		t.Errorf("AdjacencyBytes = %d for %d slots and %d nodes", l.AdjacencyBytes, l.EdgeSlots, n)
	}
}

// TestValidateWorksFrozen: Validate reads through the accessors, so it
// still checks a frozen graph.
func TestValidateWorksFrozen(t *testing.T) {
	b, _, _ := buildSmall(t)
	b.G.Freeze()
	if err := b.G.Validate(); err != nil {
		t.Fatalf("frozen Validate: %v", err)
	}
}

// TestBuilderFinish: the one-call construction endpoint validates and
// freezes.
func TestBuilderFinish(t *testing.T) {
	b, _, _ := buildSmall(t)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Frozen() {
		t.Error("Finish did not freeze")
	}
	bad := NewBuilder()
	cls := bad.Class("C", NoClass)
	m := bad.Method("m", cls)
	v := bad.Local(m, "v", cls)
	gbl := bad.GlobalVar("g", cls)
	bad.G.AddEdge(Edge{Src: gbl, Dst: v, Kind: Assign, Label: NoLabel}) // invalid: assign touching a global
	if _, err := bad.Finish(); err == nil {
		t.Error("Finish accepted an invalid graph")
	}
}
