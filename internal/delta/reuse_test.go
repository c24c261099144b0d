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
// spans of its own, and back to reuse — and checks after every wave that
// the overlay is valid and that an evolved engine answers exactly like an
// engine built from scratch on the same program.

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
//	1: global H.h with p -> h: p and h reuse their base spans
//	2: h -> b into A's SCC: h now maps b to a, so it holds its own spans
//	3: local b -> t in A dissolves A's SCC: h, a and G.g reuse again and
//	   the slots they held are freed
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
	}{
		{[]want{{&fx.p, delta.ReuseBase}, {&fx.h, delta.ReuseBase}, {&fx.a, freeze}}, 0, 0},
		{[]want{{&fx.h, own}, {&fx.a, own}, {&fx.glob, freeze}}, 2, 0},
		{[]want{{&fx.h, delta.ReuseBase}, {&fx.a, delta.ReuseBase}, {&fx.glob, delta.ReuseBase}, {&fx.t, delta.ReuseBase}}, 2, 2},
		{[]want{{&fx.glob, own}, {&fx.d1, own}, {&fx.h, delta.ReuseBase}}, 2, 0},
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
