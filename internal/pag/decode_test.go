package pag_test

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// builderForm rebuilds p's graph through AddNode/AddEdge, adding the
// edges in the order Encode writes their records, then freezes it: the
// reference Decode's bulk CSR fill must reproduce exactly.
func builderForm(t *testing.T, p *pag.Program) *pag.Graph {
	t.Helper()
	src, g := p.G, pag.NewGraph()
	for c := range src.NumClasses() {
		info := src.ClassInfo(pag.ClassID(c))
		g.AddClass(info.Name, info.Parent)
	}
	for m := range src.NumMethods() {
		info := src.MethodInfo(pag.MethodID(m))
		g.AddMethod(info.Name, info.Class)
	}
	for f := range src.NumFields() {
		g.AddField(src.FieldName(pag.FieldID(f)))
	}
	for cs := range src.NumCallSites() {
		info := src.CallSiteInfo(pag.CallSiteID(cs))
		id := g.AddCallSite(info.Caller, info.Name)
		for _, m := range info.Targets {
			g.AddCallTarget(id, m)
		}
	}
	for n := range src.NumNodes() {
		nd := src.Node(pag.NodeID(n))
		g.AddNode(nd.Kind, nd.Method, nd.Class, nd.Name)
	}
	for n := range src.NumNodes() {
		for _, e := range src.Out(pag.NodeID(n)) {
			g.AddEdge(e)
		}
	}
	if err := g.AdoptBodyless(src); err != nil {
		t.Fatal(err)
	}
	g.ResolveDerived()
	g.Freeze()
	return g
}

func encode(t testing.TB, p *pag.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pag.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func image(t testing.TB, g *pag.Graph) *pag.FrozenImage {
	t.Helper()
	img, err := g.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDecodeMatchesBuilderForm pins that Decode's bulk CSR fill lays out
// every span exactly as AddEdge's swap-insert followed by Freeze does, on
// every benchgen profile, the paper's Figure 2, an open-world program and
// random programs. Only the random ones have spans where two global edges
// precede a local one in file order, the case where the swap rule differs
// from a stable local-first partition.
func TestDecodeMatchesBuilderForm(t *testing.T) {
	progs := []*pag.Program{fixture.BuildFigure2().Prog}
	for seed := range int64(25) {
		progs = append(progs, fixture.RandProgram(seed, fixture.RandConfig{Globals: 2, GlobalAssigns: 4}))
	}
	var profiles []benchgen.Profile
	profiles = append(profiles, benchgen.Profiles...)
	profiles = append(profiles, benchgen.CyclicProfiles...)
	profiles = append(profiles, benchgen.DiamondProfiles...)
	for _, p := range profiles {
		progs = append(progs, benchgen.Generate(p.Scaled(0.005), 1))
	}
	ow, err := benchgen.GenerateOpenWorld(benchgen.OpenWorldProfiles[0], 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, ow.Stripped)

	for _, p := range progs {
		got, err := pag.Decode(bytes.NewReader(encode(t, p)))
		if err != nil {
			t.Fatalf("%s: Decode: %v", p.Name, err)
		}
		if !reflect.DeepEqual(image(t, got.G), image(t, builderForm(t, p))) {
			t.Errorf("%s: decoded image differs from the builder-form reference", p.Name)
		}
	}
}

// handWritten exercises the tokeniser and the partition rule: comments,
// blank lines, tabs, CRLF endings, escaped and empty names, a duplicate
// edge, and local edges arriving after two global ones on the same span.
const handWritten = "# a hand-written program\n" +
	"pag v1 hand%20made\n" +
	"\n" +
	"class A -1\r\n" +
	"method A.m 0\n" +
	"  field\tA.f  \n" +
	"callsite 0 A.m%3A1 0\n" +
	"node local 0 0 x\n" +
	"node local 0 -1 *\n" +
	"node object 0 0 new+A%21\n" +
	"node global -1 0 g\n" +
	"\t# indented comment\n" +
	"edge assignglobal 3 0\n" +
	"edge exit 1 0 0\n" +
	"edge new 2 0\r\n" +
	"edge entry 0 1 0\n" +
	"edge\tassign\t1\t0\n" +
	"edge new 2 0\n" +
	"edge load 0 1 0\n" +
	"edge store 1 0 0\n" +
	"edge assign 0 1\n"

func TestDecodeHandWritten(t *testing.T) {
	p, err := pag.Decode(strings.NewReader(handWritten))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "hand made" {
		t.Errorf("Name = %q", p.Name)
	}
	for n, want := range []string{"x", "", "new A!", "g"} {
		if got := p.G.Node(pag.NodeID(n)).Name; got != want {
			t.Errorf("node %d name = %q, want %q", n, got, want)
		}
	}

	ref := pag.NewGraph()
	cls := ref.AddClass("A", pag.NoClass)
	m := ref.AddMethod("A.m", cls)
	f := ref.AddField("A.f")
	cs := ref.AddCallSite(m, "A.m:1")
	ref.AddCallTarget(cs, m)
	x := ref.AddNode(pag.Local, m, cls, "x")
	y := ref.AddNode(pag.Local, m, pag.NoClass, "")
	o := ref.AddNode(pag.Object, m, cls, "new A!")
	g := ref.AddNode(pag.Global, pag.NoMethod, cls, "g")
	for _, e := range []pag.Edge{
		{Src: g, Dst: x, Kind: pag.AssignGlobal, Label: pag.NoLabel},
		{Src: y, Dst: x, Kind: pag.Exit, Label: int32(cs)},
		{Src: o, Dst: x, Kind: pag.New, Label: pag.NoLabel},
		{Src: x, Dst: y, Kind: pag.Entry, Label: int32(cs)},
		{Src: y, Dst: x, Kind: pag.Assign, Label: pag.NoLabel},
		{Src: o, Dst: x, Kind: pag.New, Label: pag.NoLabel},
		{Src: x, Dst: y, Kind: pag.Load, Label: int32(f)},
		{Src: y, Dst: x, Kind: pag.Store, Label: int32(f)},
		{Src: x, Dst: y, Kind: pag.Assign, Label: pag.NoLabel},
	} {
		ref.AddEdge(e)
	}
	ref.ResolveDerived()
	ref.Freeze()

	if got := p.G.NumEdges(); got != 8 {
		t.Errorf("NumEdges = %d, want 8 (the duplicate new edge dropped)", got)
	}
	// x's in-span received two global edges before three locals: the swap
	// rule keeps the locals in arrival order but not the globals.
	wantIn := []pag.Edge{
		{Src: o, Dst: x, Kind: pag.New, Label: pag.NoLabel},
		{Src: y, Dst: x, Kind: pag.Assign, Label: pag.NoLabel},
		{Src: y, Dst: x, Kind: pag.Store, Label: int32(f)},
		{Src: y, Dst: x, Kind: pag.Exit, Label: int32(cs)},
		{Src: g, Dst: x, Kind: pag.AssignGlobal, Label: pag.NoLabel},
	}
	if got := p.G.In(x); !reflect.DeepEqual(got, wantIn) {
		t.Errorf("In(x) = %v, want %v", got, wantIn)
	}
	if !reflect.DeepEqual(image(t, p.G), image(t, ref)) {
		t.Error("decoded image differs from the builder-form reference")
	}
	if got, want := p.G.LoadsOf(f), ref.LoadsOf(f); !reflect.DeepEqual(got, want) {
		t.Errorf("LoadsOf = %v, want %v", got, want)
	}
}

// TestDecodeForwardReferences pins that references to classes and methods
// declared further down the input stay legal, as they are for FromImage.
func TestDecodeForwardReferences(t *testing.T) {
	in := "pag v1 fwd\nnode local 0 1 v\nclass B 1\nclass A -1\nmethod B.m 0\n"
	p, err := pag.Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.G.ClassInfo(0).Parent; got != 1 {
		t.Errorf("B's parent = %d, want 1", got)
	}
}

// FuzzDecode (seed corpus under testdata/fuzz/FuzzDecode): Decode never
// panics, and whatever it accepts the snapshot loader accepts too and
// survives an Encode/Decode round trip unchanged up to the order of each
// in-span (Encode writes edges grouped by source, which fixes the
// out-spans but not the order edges reached a target in).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := pag.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		img := image(t, p.G)
		if _, err := pag.FromImage(img); err != nil {
			t.Fatalf("FromImage rejects a decoded graph: %v", err)
		}
		q, err := pag.Decode(bytes.NewReader(encode(t, p)))
		if err != nil {
			t.Fatalf("Decode(Encode(p)): %v", err)
		}
		if !reflect.DeepEqual(sortedInSpans(img), sortedInSpans(image(t, q.G))) {
			t.Fatal("Decode(Encode(p)) changed the image")
		}
	})
}

// sortedInSpans returns a copy of img whose in-spans are sorted within
// their local and global parts.
func sortedInSpans(img *pag.FrozenImage) *pag.FrozenImage {
	c := *img
	c.InEdges = slices.Clone(img.InEdges)
	byKey := func(a, b pag.Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Label, b.Label))
	}
	for n := range img.InSplit {
		slices.SortFunc(c.InEdges[img.InStart[n]:img.InSplit[n]], byKey)
		slices.SortFunc(c.InEdges[img.InSplit[n]:img.InStart[n+1]], byKey)
	}
	return &c
}

func sootC(t testing.TB, scale float64) []byte {
	return encode(t, benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(scale), 1))
}

// TestDecodeAllocsPerEdge guards the decoder's allocation profile. Its
// allocations are amortised over the whole input (arenas, flat edge and
// CSR arrays) plus one string per class, method, field, call site and
// query site: 0.23 per edge on this program, where a decoder growing
// per-node slices and a map edge set made 4.6. The bound is that figure
// plus 25%, so a return to per-edge maps or slices fails here.
func TestDecodeAllocsPerEdge(t *testing.T) {
	const bound = 0.29
	data := sootC(t, 0.05)
	var edges int
	allocs := testing.AllocsPerRun(3, func() {
		p, err := pag.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		edges = p.G.NumEdges()
	})
	if per := allocs / float64(edges); per > bound {
		t.Errorf("Decode made %.0f allocations for %d edges (%.2f per edge), want <= %.2f", allocs, edges, per, bound)
	}
}

func BenchmarkDecode(b *testing.B) {
	data := sootC(b, 0.1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pag.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
