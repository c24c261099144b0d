package pag_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// builtForm rebuilds p's graph through AddNode/AddEdge, adding the edges
// in the order Encode writes their records, then freezes it: the reference
// Decode must reproduce exactly.
func builtForm(t *testing.T, p *pag.Program) *pag.Graph {
	t.Helper()
	return builtFormOf(t, p, p.G.Edges())
}

// builtFormOf rebuilds p's tables through the graph's construction API,
// appends edges in their order through AddEdge, then freezes the graph.
func builtFormOf(t *testing.T, p *pag.Program, edges []pag.Edge) *pag.Graph {
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
	for _, e := range edges {
		g.AddEdge(e)
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

// TestDecodeMatchesBuilderForm pins that a decoded program equals the same
// tables and edges built through AddNode/AddEdge and then frozen, on every
// benchgen profile, the paper's Figure 2, an open-world program and random
// programs: Decode fills the tables and the edge list itself and must hand
// Freeze what a builder would.
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
		if !reflect.DeepEqual(image(t, got.G), image(t, builtForm(t, p))) {
			t.Errorf("%s: decoded image differs from the built reference", p.Name)
		}
	}
}

// withEdges returns p's encoding with its edge records replaced by edges,
// written in their order.
func withEdges(t testing.TB, p *pag.Program, edges []pag.Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	for line := range bytes.Lines(encode(t, p)) {
		if !bytes.HasPrefix(line, []byte("edge ")) {
			buf.Write(line)
		}
	}
	for _, e := range edges {
		if e.Label == pag.NoLabel {
			fmt.Fprintf(&buf, "edge %s %d %d\n", e.Kind, e.Src, e.Dst)
		} else {
			fmt.Fprintf(&buf, "edge %s %d %d %d\n", e.Kind, e.Src, e.Dst, e.Label)
		}
	}
	return buf.Bytes()
}

// checkDecodesLikeBuilder decodes p with its edge records replaced by
// edges and checks the result against AddEdge fed the same records and
// frozen: the same frozen image, and the same by-field Load/Store lists in
// the same order (both follow the order the records first name each edge).
func checkDecodesLikeBuilder(t *testing.T, p *pag.Program, edges []pag.Edge) {
	t.Helper()
	got, err := pag.Decode(bytes.NewReader(withEdges(t, p, edges)))
	if err != nil {
		t.Fatalf("%s: Decode: %v", p.Name, err)
	}
	want := builtFormOf(t, p, edges)
	if got.G.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges decoded, want %d", p.Name, got.G.NumEdges(), want.NumEdges())
	}
	if !reflect.DeepEqual(image(t, got.G), image(t, want)) {
		t.Errorf("%s: decoded image differs from the built reference", p.Name)
	}
	for f := range want.NumFields() {
		fid := pag.FieldID(f)
		if !slices.Equal(got.G.LoadsOf(fid), want.LoadsOf(fid)) || !slices.Equal(got.G.StoresOf(fid), want.StoresOf(fid)) {
			t.Errorf("%s: field %d: LoadsOf/StoresOf differ from the built reference", p.Name, f)
		}
	}
}

// TestDecodeRepeatedEdges feeds Decode programs whose edge records come in
// a shuffled order with about half of them repeats of earlier records.
// Repeats must vanish and the first naming of each edge must fix its
// place.
func TestDecodeRepeatedEdges(t *testing.T) {
	progs := []*pag.Program{fixture.BuildFigure2().Prog}
	for seed := range int64(10) {
		progs = append(progs, fixture.RandProgram(seed, fixture.RandConfig{Globals: 2, GlobalAssigns: 4}))
	}
	progs = append(progs, benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(0.005), 1))
	for i, p := range progs {
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		distinct := slices.Clone(p.G.Edges())
		rng.Shuffle(len(distinct), func(a, b int) { distinct[a], distinct[b] = distinct[b], distinct[a] })
		var edges []pag.Edge
		for _, e := range distinct {
			edges = append(edges, e)
			for rng.IntN(2) == 0 {
				edges = append(edges, edges[rng.IntN(len(edges))])
			}
		}
		checkDecodesLikeBuilder(t, p, edges)
	}
}

// TestDecodeHubNode gives one node 100k out-edge records, about half of
// them repeats, so its span takes the sorting path: well under a second,
// where scanning each record against the span so far takes about 20 s.
func TestDecodeHubNode(t *testing.T) {
	const hubRecords, dsts = 100_000, 10_000
	g := pag.NewGraph()
	cls := g.AddClass("H", pag.NoClass)
	m := g.AddMethod("H.m", cls)
	f0, f1 := g.AddField("H.f0"), g.AddField("H.f1")
	cs := g.AddCallSite(m, "H.m:1")
	g.AddCallTarget(cs, m)
	hub := g.AddNode(pag.Local, m, cls, "hub")
	for i := range dsts {
		g.AddNode(pag.Local, m, cls, fmt.Sprintf("v%d", i))
	}
	// A fresh record picks a random destination and kind; one in eight is
	// reversed, which gives the hub a long in-span too.
	kinds := []struct {
		k     pag.EdgeKind
		label int32
	}{{pag.Assign, pag.NoLabel}, {pag.Load, int32(f0)}, {pag.Store, int32(f1)}, {pag.Entry, int32(cs)}, {pag.Exit, int32(cs)}}
	rng := rand.New(rand.NewPCG(1, 2))
	var edges []pag.Edge
	for out := 0; out < hubRecords; {
		var e pag.Edge
		if len(edges) > 0 && rng.IntN(2) == 0 {
			e = edges[rng.IntN(len(edges))]
		} else {
			k := kinds[rng.IntN(len(kinds))]
			e = pag.Edge{Src: hub, Dst: pag.NodeID(1 + rng.IntN(dsts)), Kind: k.k, Label: k.label}
			if rng.IntN(8) == 0 {
				e.Src, e.Dst = e.Dst, e.Src
			}
		}
		if e.Src == hub {
			out++
		}
		edges = append(edges, e)
	}
	checkDecodesLikeBuilder(t, pag.NewProgram("hub", g), edges)
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
		t.Error("decoded image differs from the built reference")
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
// panics, and whatever it accepts the snapshot loader accepts too: the
// graph passes FromImage, every client site is in range (persist's site
// check), and the program survives an Encode/Decode round trip unchanged
// up to the order of each in-span (Encode writes edges grouped by source,
// which fixes the out-spans but not the order edges reached a target in).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := pag.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		img := image(t, p.G)
		if _, err := pag.FromImage(img, p.G.FieldOrder()); err != nil {
			t.Fatalf("FromImage rejects a decoded graph: %v", err)
		}
		if err := p.CheckSites(); err != nil {
			t.Fatal(err)
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

// BenchmarkDecode decodes soot-c at two scales. At 0.1 the input and its
// working set fit in cache; at 1 it is the ledger's program (9.5 MB, 115k
// nodes, 252k edges), where every random access to a per-edge table
// misses.
func BenchmarkDecode(b *testing.B) {
	for _, scale := range []float64{0.1, 1} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			data := sootC(b, scale)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := pag.Decode(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFromImageFieldOrder: FromImage restores the by-field Load/Store
// lists in the order FieldOrder records, and rejects an order that is
// short, indexes outside the out-edge array, repeats an edge or names an
// edge that is no load or store.
func TestFromImageFieldOrder(t *testing.T) {
	for seed := range int64(25) {
		g := fixture.RandProgram(seed, fixture.RandConfig{Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3}).G
		r, err := pag.FromImage(image(t, g), g.FieldOrder())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for f := range pag.FieldID(g.NumFields()) {
			if !slices.Equal(r.LoadsOf(f), g.LoadsOf(f)) || !slices.Equal(r.StoresOf(f), g.StoresOf(f)) {
				t.Errorf("seed %d field %d: restored loads %v stores %v, frozen %v %v",
					seed, f, r.LoadsOf(f), r.StoresOf(f), g.LoadsOf(f), g.StoresOf(f))
			}
		}
	}

	g := fixture.BuildFigure2().Prog.G
	img, order := image(t, g), g.FieldOrder()
	notField := slices.IndexFunc(img.OutEdges, func(e pag.Edge) bool { return e.Kind != pag.Load && e.Kind != pag.Store })
	if len(order) < 2 || notField < 0 {
		t.Fatalf("figure 2 has %d loads and stores, first other edge at %d", len(order), notField)
	}
	for name, bad := range map[string][]int32{
		"short":        order[1:],
		"out-of-range": append([]int32{int32(len(img.OutEdges))}, order[1:]...),
		"negative":     append([]int32{-1}, order[1:]...),
		"repeated":     append([]int32{order[1]}, order[1:]...),
		"not-a-field":  append([]int32{int32(notField)}, order[1:]...),
	} {
		if _, err := pag.FromImage(img, bad); err == nil {
			t.Errorf("%s field order accepted", name)
		}
	}
}
