package openworld

import (
	"strings"
	"testing"

	"dynsum/internal/pag"
)

// libFixture is a small library program: main calls four Lib methods whose
// bodies exercise each derivable flow shape plus one interior-routed method
// that must fall back to blended.
type libFixture struct {
	g                    *pag.Graph
	main                 pag.MethodID
	get, set, mk, opaque pag.MethodID
	fldF                 pag.FieldID
	glob                 pag.NodeID
	o1, o2, a, v, r1, r2 pag.NodeID
	r3                   pag.NodeID
	getThis, getRet      pag.NodeID
	setThis, setV        pag.NodeID
	mkRet, mkObj         pag.NodeID
	opThis, opTmp, opRet pag.NodeID
	csGet, csSet, csMk   pag.CallSiteID
	csOp                 pag.CallSiteID
}

func buildLib(t *testing.T) *libFixture {
	t.Helper()
	fx := &libFixture{g: pag.NewGraph()}
	g := fx.g
	cls := g.AddClass("C", pag.NoClass)
	fx.fldF = g.AddField("f")
	fx.main = g.AddMethod("Main.main", cls)
	fx.get = g.AddMethod("Lib.get", cls)
	fx.set = g.AddMethod("Lib.set", cls)
	fx.mk = g.AddMethod("Lib.mk", cls)
	fx.opaque = g.AddMethod("Lib.opaque", cls)

	fx.glob = g.AddNode(pag.Global, pag.NoMethod, pag.NoClass, "G")

	// main: a = new C; v = new C; a.f = v; r1 = a.get(); a.set(v);
	//       r2 = mk(); r3 = a.opaque(); G = a
	fx.o1 = g.AddNode(pag.Object, fx.main, cls, "o1")
	fx.o2 = g.AddNode(pag.Object, fx.main, cls, "o2")
	fx.a = g.AddNode(pag.Local, fx.main, cls, "a")
	fx.v = g.AddNode(pag.Local, fx.main, cls, "v")
	fx.r1 = g.AddNode(pag.Local, fx.main, cls, "r1")
	fx.r2 = g.AddNode(pag.Local, fx.main, cls, "r2")
	fx.r3 = g.AddNode(pag.Local, fx.main, cls, "r3")

	// Lib.get(this) { return this.f }
	fx.getThis = g.AddNode(pag.Local, fx.get, cls, "this")
	fx.getRet = g.AddNode(pag.Local, fx.get, cls, "ret")
	// Lib.set(this, v) { this.f = v }
	fx.setThis = g.AddNode(pag.Local, fx.set, cls, "this")
	fx.setV = g.AddNode(pag.Local, fx.set, cls, "v")
	// Lib.mk() { return new C }
	fx.mkRet = g.AddNode(pag.Local, fx.mk, cls, "ret")
	fx.mkObj = g.AddNode(pag.Object, fx.mk, cls, "om")
	// Lib.opaque(this) { t = this; return t } — interior temporary
	fx.opThis = g.AddNode(pag.Local, fx.opaque, cls, "this")
	fx.opTmp = g.AddNode(pag.Local, fx.opaque, cls, "t")
	fx.opRet = g.AddNode(pag.Local, fx.opaque, cls, "ret")

	add := func(e pag.Edge) {
		t.Helper()
		g.AddEdge(e)
	}
	// main body
	add(pag.Edge{Src: fx.o1, Dst: fx.a, Kind: pag.New, Label: pag.NoLabel})
	add(pag.Edge{Src: fx.o2, Dst: fx.v, Kind: pag.New, Label: pag.NoLabel})
	add(pag.Edge{Src: fx.v, Dst: fx.a, Kind: pag.Store, Label: int32(fx.fldF)})
	add(pag.Edge{Src: fx.a, Dst: fx.glob, Kind: pag.AssignGlobal, Label: pag.NoLabel})
	// call linkage
	fx.csGet = g.AddCallSite(fx.main, "main:get")
	g.AddCallTarget(fx.csGet, fx.get)
	add(pag.Edge{Src: fx.a, Dst: fx.getThis, Kind: pag.Entry, Label: int32(fx.csGet)})
	add(pag.Edge{Src: fx.getRet, Dst: fx.r1, Kind: pag.Exit, Label: int32(fx.csGet)})
	fx.csSet = g.AddCallSite(fx.main, "main:set")
	g.AddCallTarget(fx.csSet, fx.set)
	add(pag.Edge{Src: fx.a, Dst: fx.setThis, Kind: pag.Entry, Label: int32(fx.csSet)})
	add(pag.Edge{Src: fx.v, Dst: fx.setV, Kind: pag.Entry, Label: int32(fx.csSet)})
	fx.csMk = g.AddCallSite(fx.main, "main:mk")
	g.AddCallTarget(fx.csMk, fx.mk)
	add(pag.Edge{Src: fx.mkRet, Dst: fx.r2, Kind: pag.Exit, Label: int32(fx.csMk)})
	fx.csOp = g.AddCallSite(fx.main, "main:opaque")
	g.AddCallTarget(fx.csOp, fx.opaque)
	add(pag.Edge{Src: fx.a, Dst: fx.opThis, Kind: pag.Entry, Label: int32(fx.csOp)})
	add(pag.Edge{Src: fx.opRet, Dst: fx.r3, Kind: pag.Exit, Label: int32(fx.csOp)})
	// library bodies
	add(pag.Edge{Src: fx.getThis, Dst: fx.getRet, Kind: pag.Load, Label: int32(fx.fldF)})
	add(pag.Edge{Src: fx.setV, Dst: fx.setThis, Kind: pag.Store, Label: int32(fx.fldF)})
	add(pag.Edge{Src: fx.mkObj, Dst: fx.mkRet, Kind: pag.New, Label: pag.NoLabel})
	add(pag.Edge{Src: fx.opThis, Dst: fx.opTmp, Kind: pag.Assign, Label: pag.NoLabel})
	add(pag.Edge{Src: fx.opTmp, Dst: fx.opRet, Kind: pag.Assign, Label: pag.NoLabel})

	g.ResolveDerived()
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	g.Freeze()
	return fx
}

func (fx *libFixture) libMethods() []pag.MethodID {
	return []pag.MethodID{fx.get, fx.set, fx.mk, fx.opaque}
}

func TestStripBodies(t *testing.T) {
	fx := buildLib(t)
	stripped, err := StripBodies(fx.g, fx.libMethods())
	if err != nil {
		t.Fatalf("StripBodies: %v", err)
	}
	if got, want := stripped.NumNodes(), fx.g.NumNodes()+2*len(fx.libMethods()); got != want {
		t.Fatalf("stripped has %d nodes, want %d (original + 2 blob nodes per method)", got, want)
	}
	// Original node IDs mean the same thing.
	for n := 0; n < fx.g.NumNodes(); n++ {
		if a, b := fx.g.Node(pag.NodeID(n)), stripped.Node(pag.NodeID(n)); a != b {
			t.Fatalf("node %d changed: %+v -> %+v", n, a, b)
		}
	}
	// Deleted bodies are gone; main's body and all global edges survive.
	for _, n := range []pag.NodeID{fx.getThis, fx.getRet, fx.setThis, fx.setV, fx.mkRet, fx.opTmp} {
		if stripped.HasLocalEdges(n) {
			t.Errorf("node %s still has local edges", stripped.NodeString(n))
		}
	}
	stripped.Freeze()
	if !stripped.HasEdge(pag.Edge{Src: fx.o1, Dst: fx.a, Kind: pag.New, Label: pag.NoLabel}) {
		t.Errorf("main's allocation vanished")
	}
	if !stripped.HasEdge(pag.Edge{Src: fx.a, Dst: fx.getThis, Kind: pag.Entry, Label: int32(fx.csGet)}) ||
		!stripped.HasEdge(pag.Edge{Src: fx.getRet, Dst: fx.r1, Kind: pag.Exit, Label: int32(fx.csGet)}) {
		t.Errorf("call linkage of a deleted method vanished")
	}
	// Recovered interfaces.
	info, ok := stripped.Bodyless(fx.set)
	if !ok {
		t.Fatalf("Lib.set not bodyless")
	}
	if len(info.Formals) != 2 || info.Formals[0] != fx.setThis || info.Formals[1] != fx.setV {
		t.Fatalf("Lib.set formals = %v, want [%d %d]", info.Formals, fx.setThis, fx.setV)
	}
	if info.Ret != pag.NoNode {
		t.Fatalf("Lib.set has no return, got %d", info.Ret)
	}
	ginfo, _ := stripped.Bodyless(fx.get)
	if ginfo.Ret != fx.getRet || len(ginfo.Formals) != 1 || ginfo.Formals[0] != fx.getThis {
		t.Fatalf("Lib.get interface = %+v", ginfo)
	}
	if !stripped.IsBlobObject(ginfo.BlobObj) {
		t.Fatalf("Lib.get blob object not recognised")
	}
	// Re-stripping a method already bodyless is a no-op.
	again, err := StripBodies(stripped, []pag.MethodID{fx.get})
	if err != nil {
		t.Fatalf("re-strip: %v", err)
	}
	if again.NumBodyless() != stripped.NumBodyless() || again.NumNodes() != stripped.NumNodes() {
		t.Fatalf("re-strip changed the graph")
	}
}

func TestDeriveSpecs(t *testing.T) {
	fx := buildLib(t)
	stripped, err := StripBodies(fx.g, fx.libMethods())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := DeriveSpecs(fx.g, stripped)
	if err != nil {
		t.Fatalf("DeriveSpecs: %v", err)
	}
	want := map[string]string{
		"Lib.get":    "ret <- this.f",
		"Lib.set":    "this.f <- arg1",
		"Lib.mk":     "ret <- new",
		"Lib.opaque": "blended",
	}
	if len(specs.Methods) != len(want) {
		t.Fatalf("derived %d blocks, want %d:\n%s", len(specs.Methods), len(want), specs.Format())
	}
	for _, ms := range specs.Methods {
		var got string
		if ms.Blended {
			got = "blended"
		} else if len(ms.Rules) == 1 {
			got = ms.Rules[0].Dst.String() + " <- " + ms.Rules[0].Src.String()
		} else {
			t.Fatalf("method %s derived %d rules", ms.Name, len(ms.Rules))
		}
		if got != want[ms.Name] {
			t.Errorf("method %s derived %q, want %q", ms.Name, got, want[ms.Name])
		}
	}
	// The derived file must parse and resolve back onto the stripped graph.
	parsed, err := Parse(specs.Format())
	if err != nil {
		t.Fatalf("derived specs do not re-parse: %v", err)
	}
	res, err := Resolve(stripped, parsed)
	if err != nil {
		t.Fatalf("derived specs do not resolve: %v", err)
	}
	if len(res.Exact) != 3 || len(res.Blended) != 1 {
		t.Fatalf("exact=%v blended=%v", res.Exact, res.Blended)
	}
}

func TestResolveLowering(t *testing.T) {
	fx := buildLib(t)
	stripped, err := StripBodies(fx.g, fx.libMethods())
	if err != nil {
		t.Fatal(err)
	}
	getInfo, _ := stripped.Bodyless(fx.get)
	mkInfo, _ := stripped.Bodyless(fx.mk)
	opInfo, _ := stripped.Bodyless(fx.opaque)

	f, err := Parse(`
method Lib.get
  ret <- this.f
method Lib.set
  this.f <- arg1
method Lib.mk
  ret <- new
  ret <- global G
method Lib.opaque
  this.f <- new
  global G <- this.f
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(stripped, f)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	want := []pag.Edge{
		// Lib.get: the oracle's own load, reproduced shape-for-shape.
		{Src: fx.getThis, Dst: fx.getRet, Kind: pag.Load, Label: int32(fx.fldF)},
		// Lib.set: the oracle's own store.
		{Src: fx.setV, Dst: fx.setThis, Kind: pag.Store, Label: int32(fx.fldF)},
		// Lib.mk: blob allocation + global read into ret.
		{Src: mkInfo.BlobObj, Dst: fx.mkRet, Kind: pag.New, Label: pag.NoLabel},
		{Src: fx.glob, Dst: fx.mkRet, Kind: pag.AssignGlobal, Label: pag.NoLabel},
		// Lib.opaque: blob allocation stored into this.f, then this.f
		// published to G — both route through the BlobVar temporary.
		{Src: opInfo.BlobObj, Dst: opInfo.BlobVar, Kind: pag.New, Label: pag.NoLabel},
		{Src: opInfo.BlobVar, Dst: fx.opThis, Kind: pag.Store, Label: int32(fx.fldF)},
		{Src: fx.opThis, Dst: opInfo.BlobVar, Kind: pag.Load, Label: int32(fx.fldF)},
		{Src: opInfo.BlobVar, Dst: fx.glob, Kind: pag.AssignGlobal, Label: pag.NoLabel},
	}
	if len(res.Edges) != len(want) {
		t.Fatalf("lowered %d edges, want %d: %v", len(res.Edges), len(want), res.Edges)
	}
	got := make(map[pag.Edge]bool, len(res.Edges))
	for _, e := range res.Edges {
		got[e] = true
	}
	for _, e := range want {
		if !got[e] {
			t.Errorf("missing lowered edge %+v", e)
		}
	}
	if len(res.Exact) != 4 || len(res.Blended) != 0 {
		t.Fatalf("exact=%v blended=%v", res.Exact, res.Blended)
	}
	_ = getInfo
	// Lowered edges must pass graph validation once applied.
	for _, e := range res.Edges {
		stripped.AddEdge(e)
	}
	if err := stripped.Validate(); err != nil {
		t.Fatalf("applied spec edges invalid: %v", err)
	}
}

func TestResolveErrors(t *testing.T) {
	fx := buildLib(t)
	stripped, err := StripBodies(fx.g, []pag.MethodID{fx.get, fx.set})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec string
		want string
	}{
		{"method No.such\n ret <- this\n", "no such method"},
		{"method Main.main\n ret <- this\n", "not marked bodyless"},
		{"method Lib.get\n ret <- this\nmethod Lib.get\n blended\n", "already spec'd"},
		{"method Lib.get\n ret <- arg3\n", "no arg3"},
		{"method Lib.set\n ret <- this\n", "no reference return"},
		{"method Lib.get\n ret <- this.nofield\n", "does not occur"},
		{"method Lib.get\n ret <- global NOPE\n", "no global named"},
		{"method Lib.get\n blended\n ret <- this\n", "cannot also carry flow rules"},
	}
	for _, c := range cases {
		_, err := Resolve(stripped, mustParse(t, c.spec))
		if err == nil {
			t.Errorf("Resolve(%q): no error, want %q", c.spec, c.want)
			continue
		}
		re, ok := err.(*ResolveError)
		if !ok {
			t.Errorf("Resolve(%q): error %T is not *ResolveError", c.spec, err)
			continue
		}
		if !strings.Contains(re.Msg, c.want) {
			t.Errorf("Resolve(%q) = %q, want containing %q", c.spec, re.Msg, c.want)
		}
	}
}

func mustParse(t *testing.T, s string) *File {
	t.Helper()
	f, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return f
}
