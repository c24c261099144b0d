// Package fixture builds the hand-crafted PAGs used throughout the test
// suite, the examples and the experiment harness: the paper's Figure 2
// program (a Vector/Client/Main scenario whose queries s1 and s2 drive the
// Table 1 trace), several micro-graphs exercising single analysis features,
// and a seeded random-program generator for property-based cross-engine
// equivalence testing. Every fixture is frozen, as the engines require.
package fixture

import "dynsum/internal/pag"

// Figure2 bundles the PAG of paper Figure 2 with the node and call-site
// handles that the motivating example (paper §3.4, §4.3, Table 1) refers to.
type Figure2 struct {
	Prog *pag.Program

	// Classes.
	ObjectCls, VectorCls, ClientCls, IntegerCls, StringCls, ArrayCls pag.ClassID

	// Fields.
	Elems, Vec, Arr pag.FieldID

	// Key variables.
	V1, V2, C1, C2, S1, S2, Tmp1, Tmp2 pag.NodeID
	ThisVector, TVector                pag.NodeID
	ThisAdd, PAdd, TAdd                pag.NodeID
	ThisGet, TGet, RetGet              pag.NodeID
	ThisClient, VClient                pag.NodeID
	ThisSet, VSet                      pag.NodeID
	ThisRetrieve, TRetrieve, RetRetr   pag.NodeID

	// Objects, named by allocation line in the paper.
	O5, O25, O26, O27, O28, O29, O30 pag.NodeID

	// Call sites, named by line number in the paper. Site maps the paper's
	// line number to the PAG call-site ID.
	Site map[int]pag.CallSiteID
}

// BuildFigure2 constructs the PAG of paper Figure 2.
//
//	class Vector { Object[] elems; Vector(){t=new Object[8]; this.elems=t;}
//	               void add(Object p){t=this.elems; t[..]=p;}
//	               Object get(int i){t=this.elems; return t[i];} }
//	class Client { Vector vec; Client(){} Client(Vector v){this.vec=v;}
//	               void set(Vector v){this.vec=v;}
//	               Object retrieve(){t=this.vec; return t.get(0);} }
//	class Main   { static void main(){
//	                 v1=new Vector(); v1.add(new Integer(1));
//	                 c1=new Client(v1);
//	                 v2=new Vector(); v2.add(new String());
//	                 c2=new Client(); c2.set(v2);
//	                 s1=c1.retrieve(); s2=c2.retrieve(); } }
func BuildFigure2() *Figure2 {
	b := pag.NewBuilder()
	f := &Figure2{Site: make(map[int]pag.CallSiteID)}

	f.ObjectCls = b.Class("Object", pag.NoClass)
	f.VectorCls = b.Class("Vector", f.ObjectCls)
	f.ClientCls = b.Class("Client", f.ObjectCls)
	f.IntegerCls = b.Class("Integer", f.ObjectCls)
	f.StringCls = b.Class("String", f.ObjectCls)
	f.ArrayCls = b.Class("Object[]", f.ObjectCls)
	mainCls := b.Class("Main", f.ObjectCls)

	f.Elems = b.G.AddField("Vector.elems")
	f.Vec = b.G.AddField("Client.vec")
	f.Arr = b.G.ArrayField()

	// Vector.<init> (paper lines 4-6).
	vecInit := b.Method("Vector.<init>", f.VectorCls)
	f.ThisVector = b.Local(vecInit, "this", f.VectorCls)
	f.TVector = b.Local(vecInit, "t", f.ArrayCls)
	f.O5 = b.Object(vecInit, "o5", f.ArrayCls)
	b.Alloc(f.TVector, f.O5)                  // t = new Object[8]
	b.Store(f.ThisVector, f.Elems, f.TVector) // this.elems = t

	// Vector.add (lines 7-9).
	add := b.Method("Vector.add", f.VectorCls)
	f.ThisAdd = b.Local(add, "this", f.VectorCls)
	f.PAdd = b.Local(add, "p", f.ObjectCls)
	f.TAdd = b.Local(add, "t", f.ArrayCls)
	b.Load(f.TAdd, f.ThisAdd, f.Elems) // t = this.elems
	b.ArrayStore(f.TAdd, f.PAdd)       // t[count++] = p

	// Vector.get (lines 10-12).
	get := b.Method("Vector.get", f.VectorCls)
	f.ThisGet = b.Local(get, "this", f.VectorCls)
	f.TGet = b.Local(get, "t", f.ArrayCls)
	f.RetGet = b.Local(get, "ret", f.ObjectCls)
	b.Load(f.TGet, f.ThisGet, f.Elems) // t = this.elems
	b.ArrayLoad(f.RetGet, f.TGet)      // return t[i]

	// Client.<init>() (line 15) — empty body.
	clientInit0 := b.Method("Client.<init>", f.ClientCls)
	thisClient0 := b.Local(clientInit0, "this", f.ClientCls)

	// Client.<init>(Vector v) (lines 16-17).
	clientInit1 := b.Method("Client.<init>#1", f.ClientCls)
	f.ThisClient = b.Local(clientInit1, "this", f.ClientCls)
	f.VClient = b.Local(clientInit1, "v", f.VectorCls)
	b.Store(f.ThisClient, f.Vec, f.VClient) // this.vec = v

	// Client.set (lines 18-19).
	set := b.Method("Client.set", f.ClientCls)
	f.ThisSet = b.Local(set, "this", f.ClientCls)
	f.VSet = b.Local(set, "v", f.VectorCls)
	b.Store(f.ThisSet, f.Vec, f.VSet) // this.vec = v

	// Client.retrieve (lines 20-22).
	retrieve := b.Method("Client.retrieve", f.ClientCls)
	f.ThisRetrieve = b.Local(retrieve, "this", f.ClientCls)
	f.TRetrieve = b.Local(retrieve, "t", f.VectorCls)
	f.RetRetr = b.Local(retrieve, "ret", f.ObjectCls)
	b.Load(f.TRetrieve, f.ThisRetrieve, f.Vec) // t = this.vec
	// return t.get(0)  — call site at line 22.
	f.Site[22] = b.Call(retrieve, get, "Client.retrieve:22",
		[]pag.NodeID{f.TRetrieve}, []pag.NodeID{f.ThisGet}, f.RetGet, f.RetRetr)

	// Main.main (lines 24-33).
	main := b.Method("Main.main", mainCls)
	f.V1 = b.Local(main, "v1", f.VectorCls)
	f.V2 = b.Local(main, "v2", f.VectorCls)
	f.C1 = b.Local(main, "c1", f.ClientCls)
	f.C2 = b.Local(main, "c2", f.ClientCls)
	f.S1 = b.Local(main, "s1", f.ObjectCls)
	f.S2 = b.Local(main, "s2", f.ObjectCls)
	f.Tmp1 = b.Local(main, "tmp1", f.IntegerCls)
	f.Tmp2 = b.Local(main, "tmp2", f.StringCls)

	// 25: v1 = new Vector()
	f.O25 = b.Object(main, "o25", f.VectorCls)
	b.Alloc(f.V1, f.O25)
	f.Site[25] = b.Call(main, vecInit, "Main.main:25",
		[]pag.NodeID{f.V1}, []pag.NodeID{f.ThisVector}, pag.NoNode, pag.NoNode)

	// 26: v1.add(new Integer(1))
	f.O26 = b.Object(main, "o26", f.IntegerCls)
	b.Alloc(f.Tmp1, f.O26)
	f.Site[26] = b.Call(main, add, "Main.main:26",
		[]pag.NodeID{f.V1, f.Tmp1}, []pag.NodeID{f.ThisAdd, f.PAdd}, pag.NoNode, pag.NoNode)

	// 27: c1 = new Client(v1)
	f.O27 = b.Object(main, "o27", f.ClientCls)
	b.Alloc(f.C1, f.O27)
	f.Site[27] = b.Call(main, clientInit1, "Main.main:27",
		[]pag.NodeID{f.C1, f.V1}, []pag.NodeID{f.ThisClient, f.VClient}, pag.NoNode, pag.NoNode)

	// 28: v2 = new Vector()
	f.O28 = b.Object(main, "o28", f.VectorCls)
	b.Alloc(f.V2, f.O28)
	f.Site[28] = b.Call(main, vecInit, "Main.main:28",
		[]pag.NodeID{f.V2}, []pag.NodeID{f.ThisVector}, pag.NoNode, pag.NoNode)

	// 29: v2.add(new String())
	f.O29 = b.Object(main, "o29", f.StringCls)
	b.Alloc(f.Tmp2, f.O29)
	f.Site[29] = b.Call(main, add, "Main.main:29",
		[]pag.NodeID{f.V2, f.Tmp2}, []pag.NodeID{f.ThisAdd, f.PAdd}, pag.NoNode, pag.NoNode)

	// 30: c2 = new Client()
	f.O30 = b.Object(main, "o30", f.ClientCls)
	b.Alloc(f.C2, f.O30)
	f.Site[30] = b.Call(main, clientInit0, "Main.main:30",
		[]pag.NodeID{f.C2}, []pag.NodeID{thisClient0}, pag.NoNode, pag.NoNode)

	// 31: c2.set(v2)
	f.Site[31] = b.Call(main, set, "Main.main:31",
		[]pag.NodeID{f.C2, f.V2}, []pag.NodeID{f.ThisSet, f.VSet}, pag.NoNode, pag.NoNode)

	// 32: s1 = c1.retrieve()
	f.Site[32] = b.Call(main, retrieve, "Main.main:32",
		[]pag.NodeID{f.C1}, []pag.NodeID{f.ThisRetrieve}, f.RetRetr, f.S1)

	// 33: s2 = c2.retrieve()
	f.Site[33] = b.Call(main, retrieve, "Main.main:33",
		[]pag.NodeID{f.C2}, []pag.NodeID{f.ThisRetrieve}, f.RetRetr, f.S2)

	f.Prog = pag.NewProgram("figure2", b.G)
	// Two downcast sites for the SafeCast client: (Integer)s1 is safe
	// (pts(s1)={o26}), (Integer)s2 is not (pts(s2)={o29}: a String).
	f.Prog.Casts = []pag.CastSite{
		{Var: f.S1, Target: f.IntegerCls, Name: "(Integer)s1"},
		{Var: f.S2, Target: f.IntegerCls, Name: "(Integer)s2"},
	}
	// Dereference sites for NullDeref: the receiver uses in main.
	f.Prog.Derefs = []pag.DerefSite{
		{Var: f.V1, Name: "v1.add"},
		{Var: f.C1, Name: "c1.retrieve"},
	}
	b.G.Freeze()
	return f
}
