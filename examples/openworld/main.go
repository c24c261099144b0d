// Openworld: the Figure 2 program with an opaque Vector — its method
// bodies are missing (declared native), as if the container came from a
// library that was never analysed. The demo shows the three answers the
// engine can give for the same query (DESIGN.md §15):
//
//   - closed world: silently unsound — the stored objects vanish;
//   - blended: sound but approximate — the blob object stands in for
//     whatever the unknown bodies allocate or return;
//   - specs: sound and exact — vector.spec describes add/get flows, and
//     the usual summary machinery recovers the Figure 2 answers.
//
// Run it with:
//
//	go run ./examples/openworld
package main

import (
	_ "embed"
	"fmt"

	"dynsum/internal/core"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
)

const src = `
class Vector {
  Object elems;
  Vector() {}
  native void add(Object p);
  native Object get(int i);
}
class Registry {
  Registry() {}
  native Object freshest();
}
class Client {
  Vector vec;
  Client() {}
  Client(Vector v) { this.vec = v; }
  void set(Vector v) { this.vec = v; }
  Object retrieve() { Vector t; t = this.vec; return t.get(0); }
}
class Integer {}
class Main {
  static void main() {
    Vector v1; Vector v2; Client c1; Client c2; Registry reg;
    Object s1; Object s2; Object s3;
    v1 = new Vector();
    v1.add(new Integer());
    c1 = new Client(v1);
    v2 = new Vector();
    v2.add(new String());
    c2 = new Client();
    c2.set(v2);
    s1 = c1.retrieve();
    s2 = c2.retrieve();
    reg = new Registry();
    s3 = reg.freshest();
  }
}
`

//go:embed vector.spec
var specText string

func main() {
	prog, info, err := mj.Compile("openworld", src)
	if err != nil {
		panic(err)
	}
	g := prog.G
	fmt.Printf("PAG: %s, %d bodyless methods\n\n", g.Stats(), g.NumBodyless())

	vars := []string{"Main.main.s1", "Main.main.s2", "Main.main.s3"}

	show := func(label string, d *core.DynSum) {
		fmt.Printf("%-12s", label)
		for _, v := range vars {
			pts, err := d.PointsTo(info.Var(v))
			if err != nil {
				panic(err)
			}
			fmt.Printf(" pts(%s) = %-24s", v[len("Main.main."):], pts.FormatObjects(g))
		}
		fmt.Println()
	}

	// 1. Closed world: the engine pretends the missing bodies move nothing.
	show("closed", core.NewDynSum(g, core.Config{}, nil))

	// 2. Blended: sound — each query answer covers the lost objects via the
	// bodyless methods' blob objects.
	db := core.NewDynSum(g, core.Config{}, nil)
	db.EnableOpenWorld()
	show("blended", db)

	// 3. Specs: vector.spec lowers to ordinary PAG edges; Vector.add and
	// Vector.get leave blended treatment and the exact Figure 2 answers
	// come back. Registry.freshest stays blended by request.
	spec, err := openworld.Parse(specText)
	if err != nil {
		panic(err)
	}
	resolved, err := openworld.Resolve(g, spec)
	if err != nil {
		panic(err)
	}
	ds := core.NewDynSum(g, core.Config{}, nil)
	ds.EnableOpenWorld()
	if _, err := ds.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
		panic(err)
	}
	show("specs", ds)

	fmt.Printf("\nstill blended after specs: %d method(s)\n", len(ds.OpenWorldActive()))
}
