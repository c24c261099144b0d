package andersen_test

import (
	"testing"

	"dynsum/internal/andersen"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

func TestMicros(t *testing.T) {
	cases := map[string]*fixture.Micro{
		"AssignChain":           fixture.AssignChain(5),
		"FieldPair":             fixture.FieldPair(),
		"TwoFields":             fixture.TwoFields(),
		"CallReturn":            fixture.CallReturn(),
		"GlobalFlow":            fixture.GlobalFlow(),
		"PointsToCycle":         fixture.PointsToCycle(),
		"FieldCycleThroughCall": fixture.FieldCycleThroughCall(),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			res := andersen.Solve(m.Prog.G, nil, nil)
			for _, want := range m.Want {
				if !res.Has(m.Query, want) {
					t.Errorf("missing %s in pts(%s): got %v",
						m.Prog.G.NodeString(want), m.Prog.G.NodeString(m.Query), res.PointsTo(m.Query))
				}
			}
			for _, not := range m.Not {
				if res.Has(m.Query, not) {
					t.Errorf("spurious %s in pts(%s)", m.Prog.G.NodeString(not), m.Prog.G.NodeString(m.Query))
				}
			}
		})
	}
}

// TestContextInsensitivity: Andersen merges contexts, so the
// ContextSeparation fixture must report BOTH objects — that imprecision is
// exactly what distinguishes it from the demand-driven engines.
func TestContextInsensitivity(t *testing.T) {
	m := fixture.ContextSeparation()
	res := andersen.Solve(m.Prog.G, nil, nil)
	if got := res.Size(m.Query); got != 2 {
		t.Errorf("pts(x) size = %d, want 2 (context-insensitive merge)", got)
	}
}

func TestFigure2Soundness(t *testing.T) {
	f := fixture.BuildFigure2()
	res := andersen.Solve(f.Prog.G, nil, nil)
	if !res.Has(f.S1, f.O26) {
		t.Error("pts(s1) missing o26")
	}
	if !res.Has(f.S2, f.O29) {
		t.Error("pts(s2) missing o29")
	}
	// Andersen merges the two retrieve calls: both results see both objects.
	if !res.Has(f.S1, f.O29) || !res.Has(f.S2, f.O26) {
		t.Error("expected context-insensitive merge on s1/s2")
	}
}

// fakeDispatch resolves every signature to a single callee.
type fakeDispatch struct {
	callee andersen.Callee
	cls    pag.ClassID
}

func (d fakeDispatch) Dispatch(recvClass pag.ClassID, sig string) (andersen.Callee, bool) {
	if recvClass != d.cls {
		return andersen.Callee{}, false
	}
	return d.callee, true
}

func TestOnTheFlyCallGraph(t *testing.T) {
	// recv = new A; lhs = recv.m(arg)  where A.m(p){return p}.
	b := pag.NewBuilder()
	aCls := b.Class("A", pag.NoClass)
	bCls := b.Class("B", pag.NoClass)

	callee := b.Method("A.m", aCls)
	this := b.Local(callee, "this", aCls)
	p := b.Local(callee, "p", aCls)
	ret := b.Local(callee, "ret", aCls)
	b.Copy(ret, p)

	main := b.Method("Main.main", aCls)
	recv := b.Local(main, "recv", aCls)
	oRecv := b.NewObject(recv, "oA", aCls)
	arg := b.Local(main, "arg", bCls)
	oArg := b.NewObject(arg, "oB", bCls)
	lhs := b.Local(main, "lhs", bCls)
	site := b.CallSite(main, "main:1")

	calls := []andersen.VirtualCall{{
		Site: site, Recv: recv, Sig: "m/1",
		Actuals: []pag.NodeID{recv, arg}, Lhs: lhs,
	}}
	disp := fakeDispatch{
		cls:    aCls,
		callee: andersen.Callee{Method: callee, Formals: []pag.NodeID{this, p}, Ret: ret},
	}
	res := andersen.Solve(b.G, calls, disp)

	if !res.Has(lhs, oArg) {
		t.Errorf("pts(lhs) = %v, want oB through resolved call", res.PointsTo(lhs))
	}
	if res.Has(lhs, oRecv) {
		t.Error("receiver object leaked into lhs")
	}
	if res.ResolvedCalls != 1 {
		t.Errorf("ResolvedCalls = %d, want 1", res.ResolvedCalls)
	}
	// The PAG must now contain the entry/exit edges for the demand engines.
	b.G.Freeze()
	if b.G.EdgeKindCount(pag.Entry) != 2 || b.G.EdgeKindCount(pag.Exit) != 1 {
		t.Errorf("entry/exit = %d/%d, want 2/1",
			b.G.EdgeKindCount(pag.Entry), b.G.EdgeKindCount(pag.Exit))
	}
	targets := b.G.CallSiteInfo(site).Targets
	if len(targets) != 1 || targets[0] != callee {
		t.Errorf("call targets = %v, want [%d]", targets, callee)
	}
}

func TestUnresolvableDispatchIgnored(t *testing.T) {
	b := pag.NewBuilder()
	aCls := b.Class("A", pag.NoClass)
	main := b.Method("Main.main", aCls)
	recv := b.Local(main, "recv", aCls)
	b.NewObject(recv, "oA", aCls)
	lhs := b.Local(main, "lhs", aCls)
	site := b.CallSite(main, "main:1")
	calls := []andersen.VirtualCall{{Site: site, Recv: recv, Sig: "absent/0",
		Actuals: []pag.NodeID{recv}, Lhs: lhs}}
	disp := fakeDispatch{cls: pag.ClassID(99)} // never matches
	res := andersen.Solve(b.G, calls, disp)
	if res.ResolvedCalls != 0 {
		t.Errorf("ResolvedCalls = %d, want 0", res.ResolvedCalls)
	}
	if res.Size(lhs) != 0 {
		t.Errorf("pts(lhs) = %v, want empty", res.PointsTo(lhs))
	}
}

func TestDeterministicIterations(t *testing.T) {
	m := fixture.BuildFigure2()
	a := andersen.Solve(m.Prog.G, nil, nil)
	b := andersen.Solve(m.Prog.G, nil, nil)
	for i := 0; i < m.Prog.G.NumNodes(); i++ {
		v := pag.NodeID(i)
		pa, pb := a.PointsTo(v), b.PointsTo(v)
		if len(pa) != len(pb) {
			t.Fatalf("node %d: non-deterministic result sizes %d vs %d", i, len(pa), len(pb))
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("node %d: results differ", i)
			}
		}
	}
}
