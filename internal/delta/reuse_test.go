package delta_test

import (
	"testing"

	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file drives the condensed patches of one node through every
// storage transition — freeze-time spans, reuse of the base-view spans,
// spans of its own, and back to reuse — and the base view through its
// own: a base node's first patch, an added node laid out in its epoch's
// flat block and moved to a patch when a later wave changes it. After
// every wave it checks that the overlay is valid and that an evolved
// engine answers exactly like an engine built from scratch on the same
// program.

// adder is what a wave writes to: a delta.Log, or the graph under
// construction of the from-scratch reference. Both number added nodes in
// the same order.
type adder interface {
	AddNode(kind pag.NodeKind, method pag.MethodID, class pag.ClassID, name string) pag.NodeID
	AddEdge(e pag.Edge)
}

// reuseFixture is a base with two assign SCCs and a call between them:
//
//	A: a -> b -> c -> a; oa = new; lhs = B(a); G.g = c
//	D: od = new; d1 <-> d2
//	B: r = p
//
// and four waves that move its condensed patches through every state:
//
//	1: global H.h with p -> h: p and h reuse their base spans; p gets its
//	   first base-view patch, h sits in wave 1's flat block
//	2: h -> b into A's SCC: h now maps b to a, so it holds its own
//	   condensed spans, and h leaves its flat block for a base-view patch
//	   (patched in both views)
//	3: local b -> t in A dissolves A's SCC: h, a and G.g reuse again and
//	   the slots they held are freed; h's condensed entry goes, since an
//	   added node reuses by default
//	4: G.g -> d2 into D's SCC: G.g and d1 get spans of their own, in the
//	   freed slots
type reuseFixture struct {
	cls                pag.ClassID
	mA, mB, mD         pag.MethodID
	a, b, c, lhs, p, r pag.NodeID
	d1, d2, glob       pag.NodeID
	h, t               pag.NodeID // added by waves 1 and 3
	waves              []func(adder)
	numWaves           int
}

func edge(src, dst pag.NodeID, kind pag.EdgeKind) pag.Edge {
	return pag.Edge{Src: src, Dst: dst, Kind: kind, Label: pag.NoLabel}
}

// build builds the base plus the first k waves from scratch.
func (fx *reuseFixture) build(t *testing.T, k int) *pag.Graph {
	t.Helper()
	bd := pag.NewBuilder()
	fx.cls = bd.Class("C", pag.NoClass)
	fx.mA = bd.Method("A", fx.cls)
	fx.mB = bd.Method("B", fx.cls)
	fx.mD = bd.Method("D", fx.cls)
	fx.a = bd.Local(fx.mA, "a", fx.cls)
	fx.b = bd.Local(fx.mA, "b", fx.cls)
	fx.c = bd.Local(fx.mA, "c", fx.cls)
	fx.lhs = bd.Local(fx.mA, "lhs", fx.cls)
	bd.Copy(fx.b, fx.a)
	bd.Copy(fx.c, fx.b)
	bd.Copy(fx.a, fx.c)
	// After the cycle, so a's in-span lists c -> a first, as the sorted
	// condensed gather does: only then can a reuse its base spans.
	bd.NewObject(fx.a, "oa", fx.cls)
	fx.p = bd.Local(fx.mB, "p", fx.cls)
	fx.r = bd.Local(fx.mB, "r", fx.cls)
	bd.Copy(fx.r, fx.p)
	bd.Call(fx.mA, fx.mB, "A:cs0", []pag.NodeID{fx.a}, []pag.NodeID{fx.p}, fx.r, fx.lhs)
	fx.glob = bd.GlobalVar("G.g", fx.cls)
	bd.Copy(fx.glob, fx.c)
	fx.d1 = bd.Local(fx.mD, "d1", fx.cls)
	fx.d2 = bd.Local(fx.mD, "d2", fx.cls)
	bd.NewObject(fx.d1, "od", fx.cls)
	bd.Copy(fx.d2, fx.d1)
	bd.Copy(fx.d1, fx.d2)
	fx.waves = []func(adder){
		func(w adder) {
			fx.h = w.AddNode(pag.Global, pag.NoMethod, fx.cls, "H.h")
			w.AddEdge(edge(fx.p, fx.h, pag.AssignGlobal))
		},
		func(w adder) { w.AddEdge(edge(fx.h, fx.b, pag.AssignGlobal)) },
		func(w adder) {
			fx.t = w.AddNode(pag.Local, fx.mA, fx.cls, "t")
			w.AddEdge(edge(fx.b, fx.t, pag.Assign))
		},
		func(w adder) { w.AddEdge(edge(fx.glob, fx.d2, pag.AssignGlobal)) },
	}
	for _, wave := range fx.waves[:k] {
		wave(bd.G)
	}
	g, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCondensedPatchReuseTransitions(t *testing.T) {
	fx := &reuseFixture{}
	base := fx.build(t, 0)
	if base.Condensation().Trivial() {
		t.Fatal("fixture lost its assign SCCs")
	}
	baseFP := check.Fingerprint(base)
	ctxs := new(intstack.Table)
	cfg := core.Config{CompactFraction: -1}
	d := core.NewDynSum(base, cfg, ctxs)

	const freeze, own = -1, 0 // own stands for any slot >= 0
	type want struct {
		node  *pag.NodeID
		state int32
	}
	waves := []struct {
		want         []want
		slots, freed int
		// patched and flat list nodes that read a per-node base-view
		// patch and nodes that do not; entries counts the nodes each
		// view's index marks.
		patched, flat []*pag.NodeID
		entries       [2]int
	}{
		{[]want{{&fx.p, delta.ReuseBase}, {&fx.h, delta.ReuseBase}, {&fx.a, freeze}}, 0, 0,
			[]*pag.NodeID{&fx.p}, []*pag.NodeID{&fx.h, &fx.b}, [2]int{1, 1}},
		{[]want{{&fx.h, own}, {&fx.a, own}, {&fx.glob, freeze}}, 2, 0,
			[]*pag.NodeID{&fx.p, &fx.h, &fx.b}, nil, [2]int{3, 3}},
		{[]want{{&fx.h, delta.ReuseBase}, {&fx.a, delta.ReuseBase}, {&fx.glob, delta.ReuseBase}, {&fx.t, delta.ReuseBase}}, 2, 2,
			[]*pag.NodeID{&fx.h, &fx.b}, []*pag.NodeID{&fx.t, &fx.a}, [2]int{3, 7}},
		{[]want{{&fx.glob, own}, {&fx.d1, own}, {&fx.h, delta.ReuseBase}}, 2, 0,
			[]*pag.NodeID{&fx.glob, &fx.d2}, []*pag.NodeID{&fx.t, &fx.d1}, [2]int{5, 8}},
	}
	for k, w := range waves {
		log, err := d.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		fx.waves[k](log)
		if _, err := d.ApplyDelta(log); err != nil {
			t.Fatalf("wave %d: %v", k+1, err)
		}
		ov := d.Overlay()
		if err := check.Overlay(ov, base, baseFP); err != nil {
			t.Fatalf("wave %d: %v", k+1, err)
		}
		for _, nw := range w.want {
			got := delta.CondSlot(ov, *nw.node)
			if got != nw.state && !(nw.state == own && got >= 0) {
				t.Errorf("wave %d: %s condensed patch %d, want %d", k+1, ov.NodeString(*nw.node), got, nw.state)
			}
		}
		if slots, free := delta.CondSlots(ov); slots != w.slots || free != w.freed {
			t.Errorf("wave %d: %d condensed slots (%d free), want %d (%d free)", k+1, slots, free, w.slots, w.freed)
		}
		for _, n := range w.patched {
			if !delta.BasePatched(ov, *n) {
				t.Errorf("wave %d: %s reads no base-view patch, want one", k+1, ov.NodeString(*n))
			}
		}
		for _, n := range w.flat {
			if delta.BasePatched(ov, *n) {
				t.Errorf("wave %d: %s reads a base-view patch, want none", k+1, ov.NodeString(*n))
			}
		}
		if b, c := delta.IndexEntries(ov); [2]int{b, c} != w.entries {
			t.Errorf("wave %d: index entries %d base, %d condensed, want %v", k+1, b, c, w.entries)
		}

		ref := core.NewDynSum(fx.build(t, k+1), cfg, ctxs)
		for n := 0; n < ov.NumNodes(); n++ {
			v := pag.NodeID(n)
			if ov.Node(v).Kind != pag.Local {
				continue
			}
			got, errG := d.PointsTo(v)
			want, errW := ref.PointsTo(v)
			if errG != nil || errW != nil {
				t.Fatalf("wave %d: %s: errors %v / %v", k+1, ov.NodeString(v), errG, errW)
			}
			if !got.Equal(want) {
				t.Errorf("wave %d: pts(%s) = %v, want %v", k+1, ov.NodeString(v), got.Objects(), want.Objects())
			}
		}
	}
}
