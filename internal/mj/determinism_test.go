package mj_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"dynsum/internal/check"
	"dynsum/internal/mj"
	"dynsum/internal/pag"
)

// dispatchSrc dispatches one call through a field-loaded receiver whose
// points-to set holds four overriding classes, so the call site resolves
// to four callees in one solver step.
const dispatchSrc = `
class Shape { Object area(Object a) { return a; } }
class Circle extends Shape { Object area(Object a) { return new Object(); } }
class Square extends Shape { Object area(Object a) { return new String(); } }
class Tri extends Shape { Object area(Object a) { return a; } }
class Hex extends Shape { Object area(Object a) { return new Object(); } }
class Box { Shape s; }
class Main {
  static void main() {
    Box b; Shape s; Object x; Object r;
    b = new Box();
    b.s = new Circle();
    b.s = new Square();
    b.s = new Tri();
    b.s = new Hex();
    b.s = new Shape();
    s = b.s;
    x = new Object();
    r = s.area(x);
  }
}
`

// TestCompileDeterministic: compiling one source repeatedly yields one
// graph layout and one call-target order. The virtual call's callees are
// resolved while the solver walks a receiver's points-to set, whose order
// must not leak into the graph.
func TestCompileDeterministic(t *testing.T) {
	var wantFP uint64
	var wantTargets [][]pag.MethodID
	for i := range 200 {
		prog, info, err := mj.Compile("dispatch", dispatchSrc)
		if err != nil {
			t.Fatal(err)
		}
		if info.Andersen == nil || info.Andersen.ResolvedCalls != 5 {
			t.Fatalf("Info.Andersen = %+v, want the solve that resolved 5 callees", info.Andersen)
		}
		g := prog.G
		var targets [][]pag.MethodID
		for cs := 0; cs < g.NumCallSites(); cs++ {
			targets = append(targets, g.CallSiteInfo(pag.CallSiteID(cs)).Targets)
		}
		fp := check.Fingerprint(g)
		if i == 0 {
			wantFP, wantTargets = fp, targets
			continue
		}
		if fp != wantFP {
			t.Fatalf("compile %d: fingerprint %x, first compile %x", i, fp, wantFP)
		}
		if !slices.EqualFunc(targets, wantTargets, slices.Equal) {
			t.Fatalf("compile %d: call targets %v, first compile %v", i, targets, wantTargets)
		}
	}
	if n := len(wantTargets[len(wantTargets)-1]); n != 5 {
		t.Fatalf("virtual call resolved to %d callees, want 5", n)
	}
}

// wantCompiledLayouts pins the frozen layout of the compiled programs: the
// image (CSR arrays, condensation, call-target lists), the by-field
// Load/Store lists and the per-kind edge counts.
var wantCompiledLayouts = map[string]string{
	"dispatch": "e5c5c10eac231d94",
	"figure2":  "ab6e31ce6eca0138",
	"native":   "52858f6129699abd",
}

// TestCompiledLayoutPins: the frontend still lays out each program
// exactly as pinned, whatever path builds and freezes its graph.
func TestCompiledLayoutPins(t *testing.T) {
	for name, src := range map[string]string{"figure2": figure2Src, "native": nativeSrc, "dispatch": dispatchSrc} {
		prog, _ := compile(t, src)
		g := prog.G
		img, err := g.Image()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%v\n", *img)
		for f := 0; f < g.NumFields(); f++ {
			fmt.Fprintf(h, "field %d loads %v stores %v\n", f, g.LoadsOf(pag.FieldID(f)), g.StoresOf(pag.FieldID(f)))
		}
		for k := 0; k < pag.NumEdgeKinds; k++ {
			fmt.Fprintf(h, "kind %d count %d\n", k, g.EdgeKindCount(pag.EdgeKind(k)))
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != wantCompiledLayouts[name] {
			t.Errorf("%q: layout digest %s, pinned %q", name, got, wantCompiledLayouts[name])
		}
	}
}
