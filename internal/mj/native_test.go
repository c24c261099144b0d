package mj_test

import (
	"strings"
	"testing"

	"dynsum/internal/core"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// nativeSrc declares an opaque library class: get's body is missing, so
// only the open-world machinery can answer queries that route through it.
const nativeSrc = `
class Box {
  Object held;
  Box() {}
  void put(Object v) { this.held = v; }
  native Object get(int i);
  native static Box lookup(Box b, int k);
}
class Main {
  static void main() {
    Box b; Object o; Object r; Box c;
    b = new Box();
    o = new String();
    b.put(o);
    r = b.get(0);
    c = Box.lookup(b, 1);
  }
}
`

func TestNativeMethodsMarkBodyless(t *testing.T) {
	prog, info := compile(t, nativeSrc)
	g := prog.G
	if got := g.NumBodyless(); got != 2 {
		t.Fatalf("NumBodyless = %d, want 2", got)
	}

	get := info.Methods["Box.get/1"]
	gi, ok := g.Bodyless(get)
	if !ok {
		t.Fatal("Box.get not marked bodyless")
	}
	// Instance method: arg0 is the receiver, the int param holds its
	// position with NoNode, and the Object return is recorded.
	if len(gi.Formals) != 2 || gi.Formals[0] != info.Var("Box.get.this") || gi.Formals[1] != pag.NoNode {
		t.Errorf("Box.get formals = %v, want [this NoNode]", gi.Formals)
	}
	if gi.Ret != info.Var("Box.get.#ret") {
		t.Errorf("Box.get ret = %d, want %d", gi.Ret, info.Var("Box.get.#ret"))
	}
	if gi.BlobObj == pag.NoNode || !g.IsBlobObject(gi.BlobObj) {
		t.Errorf("Box.get blob object %d not a blob", gi.BlobObj)
	}

	lookup := info.Methods["Box.lookup/2"]
	li, ok := g.Bodyless(lookup)
	if !ok {
		t.Fatal("Box.lookup not marked bodyless")
	}
	// Static method: no receiver, arg0 is the first parameter.
	if len(li.Formals) != 2 || li.Formals[0] != info.Var("Box.lookup.b") || li.Formals[1] != pag.NoNode {
		t.Errorf("Box.lookup formals = %v, want [b NoNode]", li.Formals)
	}
}

// TestNativeOpenWorldQuery routes a query through the native method: the
// closed-world engine drops the stored String (get's body is missing), the
// blended open-world engine must cover it via get's blob object, and a
// spec restores the exact answer.
func TestNativeOpenWorldQuery(t *testing.T) {
	prog, info := compile(t, nativeSrc)
	r := info.Var("Main.main.r")
	get := info.Methods["Box.get/1"]
	blob, _ := prog.G.Bodyless(get)

	d := core.NewDynSum(prog.G, core.Config{}, nil)
	d.EnableOpenWorld()
	pts, err := d.PointsTo(r)
	if err != nil {
		t.Fatal(err)
	}
	if !pts.HasObject(blob.BlobObj) {
		t.Errorf("blended pts(r) = %s, missing get's blob", pts.FormatObjects(prog.G))
	}

	spec, err := openworld.Parse("method Box.get\n  ret <- this.Box.held\n" +
		"method Box.lookup\n  ret <- arg0\n")
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := openworld.Resolve(prog.G, spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := core.NewDynSum(prog.G, core.Config{}, nil)
	ds.EnableOpenWorld()
	if _, err := ds.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
		t.Fatal(err)
	}
	spts, err := ds.PointsTo(r)
	if err != nil {
		t.Fatal(err)
	}
	// Under the spec, r must see the String stored through put.
	want := false
	for _, o := range spts.Objects() {
		if strings.Contains(prog.G.NodeString(o), "String") {
			want = true
		}
	}
	if !want {
		t.Errorf("spec'd pts(r) = %s, missing the stored String", spts.FormatObjects(prog.G))
	}
}

func TestNativeParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"class A { native int x; }", "'native' applies to methods"},
		{"class A { native void m() { } }", "expected ';'"},
		{"class A { native A(); }", "expected"}, // no native constructors
	}
	for _, c := range cases {
		_, _, err := mj.Compile("t", c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) err = %v, want containing %q", c.src, err, c.want)
		}
	}
}
