package core_test

import (
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// edit applies one delta epoch, recorded by fill, to d.
func edit(t *testing.T, d *core.DynSum, fill func(*delta.Log)) core.DeltaResult {
	t.Helper()
	log, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	fill(log)
	res, err := d.ApplyDelta(log)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIncrementalEditInvalidation models the IDE scenario the paper
// motivates (§1, §7): after editing a method, invalidating just that
// method's summaries restores exact answers, while the rest of the warm
// cache keeps being reused. The edit arrives as a delta epoch, which
// invalidates the edited method by itself.
func TestIncrementalEditInvalidation(t *testing.T) {
	f := fixture.BuildFigure2()
	g := f.Prog.G

	warm := core.NewDynSum(g, core.Config{}, nil)
	// Warm the cache on the motivating queries.
	if _, err := warm.PointsTo(f.S1); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.PointsTo(f.S2); err != nil {
		t.Fatal(err)
	}

	// "Edit" Vector.add: the payload now also flows into the object
	// array via a second store path (t2 aliases t).
	addMethod := g.Node(f.TAdd).Method
	editAdd := func(l *delta.Log) {
		t2 := l.AddNode(pag.Local, addMethod, pag.NoClass, "t2")
		l.AddEdge(pag.Edge{Src: f.ThisAdd, Dst: t2, Kind: pag.Load, Label: int32(f.Elems)})
		l.AddEdge(pag.Edge{Src: f.PAdd, Dst: t2, Kind: pag.Store, Label: int32(f.Arr)})
	}
	if res := edit(t, warm, editAdd); res.InvalidatedSummaries == 0 {
		t.Fatal("no summaries invalidated for the edited method")
	}

	fresh := core.NewDynSum(g, core.Config{}, warm.Ctxs())
	edit(t, fresh, editAdd)
	for _, q := range []pag.NodeID{f.S1, f.S2, f.PAdd, f.RetGet} {
		a, errA := warm.PointsTo(q)
		b, errB := fresh.PointsTo(q)
		if errA != nil || errB != nil {
			t.Fatalf("query %s: %v / %v", g.NodeString(q), errA, errB)
		}
		if !a.Equal(b) {
			t.Errorf("query %s: warm-after-edit %s != fresh %s",
				g.NodeString(q), a.FormatObjects(g), b.FormatObjects(g))
		}
	}

	// The unedited methods' summaries must still be reused.
	m := warm.Metrics()
	if m.CacheHits == 0 {
		t.Error("invalidation wiped unrelated summaries")
	}
}

// TestGlobalEdgeEditNeedsNoInvalidation: summaries cover only local
// closure, so adding a global (call) edge changes answers without any
// invalidation — the driver reads global edges live.
func TestGlobalEdgeEditNeedsNoInvalidation(t *testing.T) {
	f := fixture.BuildFigure2()
	g := f.Prog.G
	warm := core.NewDynSum(g, core.Config{}, nil)
	before, err := warm.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}

	// New call site: v1.add(c1) — the Client object o27 now flows into p,
	// which no existing call site provided.
	addCall := func(l *delta.Log) {
		cs := l.AddCallSite(pag.CallSite{Caller: g.Node(f.S2).Method, Name: "Main.main:new"})
		l.AddEdge(pag.Edge{Src: f.V1, Dst: f.ThisAdd, Kind: pag.Entry, Label: int32(cs)})
		l.AddEdge(pag.Edge{Src: f.C1, Dst: f.PAdd, Kind: pag.Entry, Label: int32(cs)})
	}
	if res := edit(t, warm, addCall); res.InvalidatedSummaries != 0 {
		t.Errorf("a global edit invalidated %d summaries", res.InvalidatedSummaries)
	}

	after, err := warm.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}
	if !after.HasObject(f.O27) {
		t.Errorf("new call edge not observed: %s", after.FormatObjects(g))
	}
	if after.Len() <= before.Len() {
		t.Error("points-to set did not grow after adding a call edge")
	}

	fresh := core.NewDynSum(g, core.Config{}, warm.Ctxs())
	edit(t, fresh, addCall)
	want, err := fresh.PointsTo(f.PAdd)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(want) {
		t.Errorf("warm engine after global edit %s != fresh %s",
			after.FormatObjects(g), want.FormatObjects(g))
	}
}
