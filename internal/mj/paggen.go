package mj

import (
	"fmt"
	"strings"

	"dynsum/internal/andersen"
	"dynsum/internal/pag"
)

// Compile parses src and lowers it to a PAG Program: classes become the
// hierarchy, instance fields become per-declaring-class field labels,
// static fields become global nodes, method bodies become local edges with
// fresh temporaries, direct calls (static methods, constructors) become
// entry/exit edges immediately, and virtual calls are resolved by running
// the Andersen analysis with on-the-fly call-graph construction, exactly
// as Spark does for the paper (Table 3 caption).
//
// Client metadata is collected along the way: every class-typed cast is a
// SafeCast site, every field/array/receiver dereference is a NullDeref
// site, and every method whose name starts with "create", "make" or "new"
// and returns a reference is a FactoryM site.
func Compile(name, src string) (*pag.Program, *Info, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	g := &generator{
		b:        pag.NewBuilder(),
		classes:  make(map[string]*classInfo),
		byID:     make(map[pag.ClassID]*classInfo),
		info:     &Info{Vars: make(map[string]pag.NodeID), Methods: make(map[string]pag.MethodID)},
		arrayCls: make(map[string]pag.ClassID),
	}
	if err := g.declare(file); err != nil {
		return nil, nil, err
	}
	if err := g.generate(file); err != nil {
		return nil, nil, err
	}
	// Resolve virtual calls with Andersen on-the-fly call-graph
	// construction; this adds the remaining entry/exit edges to the PAG.
	g.info.Andersen = andersen.Solve(g.b.G, g.virtualCalls, g)

	prog := pag.NewProgram(name, g.b.G)
	prog.Casts = g.casts
	prog.Derefs = g.derefs
	prog.Factories = g.factories
	if err := g.b.G.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mj: internal error: generated invalid PAG: %w", err)
	}
	// Compilation (including on-the-fly call-graph resolution above) is
	// complete: freeze the PAG into its immutable CSR layout.
	g.b.G.Freeze()
	return prog, g.info, nil
}

// Info exposes frontend symbol information for tests, the CLI and the
// examples: node IDs by qualified name.
type Info struct {
	// Vars maps "Class.method.var" (and "Class.method.#ret" for return
	// values, "Class.field" for statics) to PAG nodes.
	Vars map[string]pag.NodeID
	// Methods maps "Class.method/arity" to method IDs.
	Methods map[string]pag.MethodID
	// Andersen is the whole-program solution used for call-graph
	// construction (receiver points-to sets etc.).
	Andersen *andersen.Result
}

// Var returns the node for a qualified variable name, or NoNode.
func (in *Info) Var(qualified string) pag.NodeID {
	if n, ok := in.Vars[qualified]; ok {
		return n
	}
	return pag.NoNode
}

type classInfo struct {
	decl    *ClassDecl
	id      pag.ClassID
	super   *classInfo
	fields  map[string]*fieldInfo
	methods map[string]*methodInfo // key: name + "/" + arity
}

type fieldInfo struct {
	decl  *FieldDecl
	owner *classInfo
	fid   pag.FieldID // instance fields
	gnode pag.NodeID  // static fields
}

type methodInfo struct {
	decl   *MethodDecl
	owner  *classInfo
	id     pag.MethodID
	this   pag.NodeID   // NoNode for statics
	params []pag.NodeID // NoNode at non-reference positions
	ret    pag.NodeID   // NoNode for void/int returns
}

func (m *methodInfo) qualified() string {
	return m.owner.decl.Name + "." + m.decl.Name
}

type generator struct {
	b        *pag.Builder
	classes  map[string]*classInfo
	byID     map[pag.ClassID]*classInfo
	info     *Info
	arrayCls map[string]pag.ClassID

	objectCls *classInfo
	stringCls *classInfo

	virtualCalls []andersen.VirtualCall
	casts        []pag.CastSite
	derefs       []pag.DerefSite
	factories    []pag.FactorySite

	// per-method generation state
	cur  *methodInfo
	vars map[string]pag.NodeID // locals and params (NoNode for int)
	tmp  int
}

// declare builds the class hierarchy and all signatures (two-phase so that
// forward references work).
func (g *generator) declare(file *File) error {
	// Built-ins.
	g.objectCls = g.newClass(&ClassDecl{Name: "Object"}, pag.NoClass)
	g.stringCls = g.newClass(&ClassDecl{Name: "String"}, g.objectCls.id)

	for _, cd := range file.Classes {
		if _, dup := g.classes[cd.Name]; dup {
			return errf(cd.Line, "class %s redeclared", cd.Name)
		}
		g.newClass(cd, pag.NoClass) // parent fixed in the next pass
	}
	// Wire inheritance.
	for _, cd := range file.Classes {
		ci := g.classes[cd.Name]
		super := g.objectCls
		if cd.Extends != "" {
			s, ok := g.classes[cd.Extends]
			if !ok {
				return errf(cd.Line, "class %s extends unknown class %s", cd.Name, cd.Extends)
			}
			super = s
		}
		ci.super = super
		// Patch the hierarchy in the PAG class table.
		g.b.G.SetClassParent(ci.id, super.id)
	}
	// Detect inheritance cycles.
	for _, ci := range g.classes {
		seen := map[*classInfo]bool{}
		for c := ci; c != nil; c = c.super {
			if seen[c] {
				return errf(ci.decl.Line, "inheritance cycle through class %s", ci.decl.Name)
			}
			seen[c] = true
		}
	}
	// Fields and method signatures.
	for _, cd := range file.Classes {
		ci := g.classes[cd.Name]
		for _, fd := range cd.Fields {
			if _, dup := ci.fields[fd.Name]; dup {
				return errf(fd.Line, "field %s.%s redeclared", cd.Name, fd.Name)
			}
			fi := &fieldInfo{decl: fd, owner: ci, fid: pag.NoField, gnode: pag.NoNode}
			if fd.Static {
				if fd.Type.IsRef() {
					fi.gnode = g.b.GlobalVar(cd.Name+"."+fd.Name, g.classID(fd.Type))
					g.info.Vars[cd.Name+"."+fd.Name] = fi.gnode
				}
			} else if fd.Type.IsRef() {
				fi.fid = g.b.G.AddField(cd.Name + "." + fd.Name)
			}
			ci.fields[fd.Name] = fi
		}
		for _, md := range cd.Methods {
			key := md.Name + "/" + itoa(len(md.Params))
			if _, dup := ci.methods[key]; dup {
				return errf(md.Line, "method %s.%s/%d redeclared", cd.Name, md.Name, len(md.Params))
			}
			mi := &methodInfo{decl: md, owner: ci, this: pag.NoNode, ret: pag.NoNode}
			mi.id = g.b.Method(cd.Name+"."+md.Name, ci.id)
			g.info.Methods[cd.Name+"."+md.Name+"/"+itoa(len(md.Params))] = mi.id
			if !md.Static {
				mi.this = g.b.Local(mi.id, "this", ci.id)
				g.info.Vars[mi.qualified()+".this"] = mi.this
			}
			for _, p := range md.Params {
				var n pag.NodeID = pag.NoNode
				if p.Type.IsRef() {
					n = g.b.Local(mi.id, p.Name, g.classID(p.Type))
					g.info.Vars[mi.qualified()+"."+p.Name] = n
				}
				mi.params = append(mi.params, n)
			}
			if md.Ret.IsRef() {
				mi.ret = g.b.Local(mi.id, "#ret", g.classID(md.Ret))
				g.info.Vars[mi.qualified()+".#ret"] = mi.ret
			}
			ci.methods[key] = mi
		}
	}
	return nil
}

func (g *generator) newClass(cd *ClassDecl, parent pag.ClassID) *classInfo {
	ci := &classInfo{
		decl:    cd,
		id:      g.b.Class(cd.Name, parent),
		fields:  make(map[string]*fieldInfo),
		methods: make(map[string]*methodInfo),
	}
	g.classes[cd.Name] = ci
	g.byID[ci.id] = ci
	return ci
}

// classID maps a surface reference type to a PAG class, creating array
// classes lazily.
func (g *generator) classID(t Type) pag.ClassID {
	if !t.IsRef() {
		return pag.NoClass
	}
	if t.Array {
		key := t.Name + "[]"
		if id, ok := g.arrayCls[key]; ok {
			return id
		}
		id := g.b.Class(key, g.objectCls.id)
		g.arrayCls[key] = id
		return id
	}
	if ci, ok := g.classes[t.Name]; ok {
		return ci.id
	}
	return g.objectCls.id
}

// lookupMethod resolves name/arity starting at ci and walking up.
func lookupMethod(ci *classInfo, name string, arity int) *methodInfo {
	key := name + "/" + itoa(arity)
	for c := ci; c != nil; c = c.super {
		if m, ok := c.methods[key]; ok {
			return m
		}
	}
	return nil
}

// lookupField resolves a field starting at ci and walking up.
func lookupField(ci *classInfo, name string) *fieldInfo {
	for c := ci; c != nil; c = c.super {
		if f, ok := c.fields[name]; ok {
			return f
		}
	}
	return nil
}

// Dispatch implements andersen.Dispatcher using the class hierarchy.
func (g *generator) Dispatch(recvClass pag.ClassID, sig string) (andersen.Callee, bool) {
	ci, ok := g.byID[recvClass]
	if !ok {
		return andersen.Callee{}, false
	}
	slash := strings.LastIndexByte(sig, '/')
	name := sig[:slash]
	arity := 0
	for _, c := range sig[slash+1:] {
		arity = arity*10 + int(c-'0')
	}
	mi := lookupMethod(ci, name, arity)
	if mi == nil || mi.decl.Static {
		return andersen.Callee{}, false
	}
	formals := append([]pag.NodeID{mi.this}, mi.params...)
	return andersen.Callee{Method: mi.id, Formals: formals, Ret: mi.ret}, true
}

// generate lowers every method body.
func (g *generator) generate(file *File) error {
	for _, cd := range file.Classes {
		ci := g.classes[cd.Name]
		for _, md := range cd.Methods {
			mi := ci.methods[md.Name+"/"+itoa(len(md.Params))]
			if md.Native {
				// No body to lower: record the boundary interface (receiver
				// first, then params in source order, NoNode at non-reference
				// positions so spec argument indices stay signature-aligned)
				// and let the open-world machinery model the method.
				var formals []pag.NodeID
				if mi.this != pag.NoNode {
					formals = append(formals, mi.this)
				}
				formals = append(formals, mi.params...)
				if _, err := g.b.G.MarkBodyless(mi.id, formals, mi.ret); err != nil {
					return errf(md.Line, "native method %s: %v", mi.qualified(), err)
				}
			} else if err := g.genMethod(mi); err != nil {
				return err
			}
			if isFactoryName(md.Name) && mi.ret != pag.NoNode {
				g.factories = append(g.factories, pag.FactorySite{
					Method: mi.id, Ret: mi.ret, Name: mi.qualified(),
				})
			}
		}
	}
	return nil
}

func isFactoryName(name string) bool {
	for _, p := range []string{"create", "make", "new"} {
		if strings.HasPrefix(name, p) && len(name) > len(p) {
			return true
		}
	}
	return false
}

func (g *generator) genMethod(mi *methodInfo) error {
	g.cur = mi
	g.vars = make(map[string]pag.NodeID)
	g.tmp = 0
	if mi.this != pag.NoNode {
		g.vars["this"] = mi.this
	}
	for i, p := range mi.decl.Params {
		g.vars[p.Name] = mi.params[i]
	}
	return g.genStmts(mi.decl.Body)
}

func (g *generator) genStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) temp(class pag.ClassID) pag.NodeID {
	g.tmp++
	return g.b.Local(g.cur.id, fmt.Sprintf("#t%d", g.tmp), class)
}

func (g *generator) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *VarDecl:
		if _, dup := g.vars[st.Name]; dup {
			return errf(st.Line, "variable %s redeclared", st.Name)
		}
		var n pag.NodeID = pag.NoNode
		if st.Type.IsRef() {
			n = g.b.Local(g.cur.id, st.Name, g.classID(st.Type))
			g.info.Vars[g.cur.qualified()+"."+st.Name] = n
		}
		g.vars[st.Name] = n
		if st.Init != nil {
			v, _, err := g.genExpr(st.Init)
			if err != nil {
				return err
			}
			if n != pag.NoNode && v != pag.NoNode {
				g.b.Copy(n, v)
			}
		}
		return nil

	case *AssignStmt:
		rhs, _, err := g.genExpr(st.Rhs)
		if err != nil {
			return err
		}
		return g.genAssignTo(st.Lhs, rhs, st.Line)

	case *ExprStmt:
		_, _, err := g.genExpr(st.X)
		return err

	case *ReturnStmt:
		if st.X == nil {
			return nil
		}
		v, _, err := g.genExpr(st.X)
		if err != nil {
			return err
		}
		if g.cur.ret != pag.NoNode && v != pag.NoNode {
			g.b.Copy(g.cur.ret, v)
		}
		return nil

	case *IfStmt:
		if _, _, err := g.genExpr(st.Cond); err != nil {
			return err
		}
		if err := g.genStmts(st.Then); err != nil {
			return err
		}
		return g.genStmts(st.Else)

	case *WhileStmt:
		if _, _, err := g.genExpr(st.Cond); err != nil {
			return err
		}
		return g.genStmts(st.Body)
	}
	return fmt.Errorf("mj: unknown statement %T", s)
}

// genAssignTo stores rhs into the lvalue.
func (g *generator) genAssignTo(lhs Expr, rhs pag.NodeID, line int) error {
	switch lv := lhs.(type) {
	case *Ident:
		// Local / param?
		if n, ok := g.vars[lv.Name]; ok {
			if n != pag.NoNode && rhs != pag.NoNode {
				g.b.Copy(n, rhs)
			}
			return nil
		}
		// Field of this / static field of enclosing class chain.
		if fi := lookupField(g.cur.owner, lv.Name); fi != nil {
			return g.storeField(fi, g.cur.this, rhs, line)
		}
		return errf(line, "assignment to undeclared %s", lv.Name)

	case *FieldAccess:
		fi, base, err := g.resolveFieldAccess(lv)
		if err != nil {
			return err
		}
		return g.storeField(fi, base, rhs, line)

	case *IndexExpr:
		base, _, err := g.genExpr(lv.X)
		if err != nil {
			return err
		}
		if base == pag.NoNode {
			return nil // int array
		}
		g.deref(base, "[]=", lv.Line)
		if rhs != pag.NoNode {
			g.b.ArrayStore(base, rhs)
		}
		return nil
	}
	return errf(line, "invalid assignment target")
}

// storeField lowers field writes for instance (base.f = rhs) and static
// (C.f = rhs) fields. base is the receiver node for instance fields.
func (g *generator) storeField(fi *fieldInfo, base, rhs pag.NodeID, line int) error {
	if fi.decl.Static {
		if fi.gnode != pag.NoNode && rhs != pag.NoNode {
			g.b.Copy(fi.gnode, rhs)
		}
		return nil
	}
	if base == pag.NoNode {
		return errf(line, "instance field %s used without receiver", fi.decl.Name)
	}
	g.deref(base, "."+fi.decl.Name+"=", line)
	if fi.fid != pag.NoField && rhs != pag.NoNode {
		g.b.Store(base, fi.fid, rhs)
	}
	return nil
}

// resolveFieldAccess resolves x.f, distinguishing static access via a
// class name from instance access via an expression. It returns the field
// plus the evaluated base node (NoNode for statics).
func (g *generator) resolveFieldAccess(fa *FieldAccess) (*fieldInfo, pag.NodeID, error) {
	if id, ok := fa.X.(*Ident); ok {
		if _, isVar := g.vars[id.Name]; !isVar {
			if ci, isClass := g.classes[id.Name]; isClass {
				fi := lookupField(ci, fa.Name)
				if fi == nil || !fi.decl.Static {
					return nil, pag.NoNode, errf(fa.Line, "no static field %s.%s", id.Name, fa.Name)
				}
				return fi, pag.NoNode, nil
			}
		}
	}
	base, typ, err := g.genExpr(fa.X)
	if err != nil {
		return nil, pag.NoNode, err
	}
	ci := g.staticClassOf(typ)
	fi := lookupField(ci, fa.Name)
	if fi == nil {
		return nil, pag.NoNode, errf(fa.Line, "no field %s in class %s", fa.Name, typ)
	}
	return fi, base, nil
}

// staticClassOf maps a static type to its classInfo (Object for arrays and
// unknowns, which is safe because field lookup then fails loudly).
func (g *generator) staticClassOf(t Type) *classInfo {
	if t.Array {
		return g.objectCls
	}
	if ci, ok := g.classes[t.Name]; ok {
		return ci
	}
	return g.objectCls
}

// deref records a NullDeref client site on base.
func (g *generator) deref(base pag.NodeID, what string, line int) {
	g.derefs = append(g.derefs, pag.DerefSite{
		Var:  base,
		Name: fmt.Sprintf("%s:%d %s%s", g.cur.qualified(), line, g.b.G.NodeString(base), what),
	})
}

// genExpr lowers an expression, returning its value node (NoNode for
// non-reference values) and its static type.
func (g *generator) genExpr(e Expr) (pag.NodeID, Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		return pag.NoNode, Type{Name: "int"}, nil

	case *BinaryExpr:
		if _, _, err := g.genExpr(ex.L); err != nil {
			return pag.NoNode, Type{}, err
		}
		if _, _, err := g.genExpr(ex.R); err != nil {
			return pag.NoNode, Type{}, err
		}
		return pag.NoNode, Type{Name: "int"}, nil

	case *UnaryExpr:
		if _, _, err := g.genExpr(ex.X); err != nil {
			return pag.NoNode, Type{}, err
		}
		return pag.NoNode, Type{Name: "int"}, nil

	case *StrLit:
		t := g.temp(g.stringCls.id)
		g.b.NewObject(t, fmt.Sprintf("str@%d", ex.Line), g.stringCls.id)
		return t, Type{Name: "String"}, nil

	case *NullLit:
		t := g.temp(pag.NoClass)
		g.b.NullAssign(t)
		return t, Type{Name: "Object"}, nil

	case *ThisExpr:
		if g.cur.this == pag.NoNode {
			return pag.NoNode, Type{}, errf(ex.Line, "this in static method")
		}
		return g.cur.this, Type{Name: g.cur.owner.decl.Name}, nil

	case *Ident:
		if n, ok := g.vars[ex.Name]; ok {
			return n, g.declaredType(ex.Name), nil
		}
		if fi := lookupField(g.cur.owner, ex.Name); fi != nil {
			return g.loadField(fi, g.cur.this, ex.Line)
		}
		return pag.NoNode, Type{}, errf(ex.Line, "undeclared identifier %s", ex.Name)

	case *NewObject:
		ci, ok := g.classes[ex.Class]
		if !ok {
			return pag.NoNode, Type{}, errf(ex.Line, "new of unknown class %s", ex.Class)
		}
		t := g.temp(ci.id)
		g.b.NewObject(t, fmt.Sprintf("o@%d(%s)", ex.Line, ex.Class), ci.id)
		// Constructor call (direct dispatch).
		if ctor := lookupMethod(ci, ex.Class, len(ex.Args)); ctor != nil && ctor.decl.Ctor {
			if err := g.directCall(ctor, t, ex.Args, ex.Line); err != nil {
				return pag.NoNode, Type{}, err
			}
		} else if len(ex.Args) > 0 {
			return pag.NoNode, Type{}, errf(ex.Line, "no %d-argument constructor for %s", len(ex.Args), ex.Class)
		}
		return t, Type{Name: ex.Class}, nil

	case *NewArray:
		if _, _, err := g.genExpr(ex.Len); err != nil {
			return pag.NoNode, Type{}, err
		}
		cid := g.classID(Type{Name: ex.Elem.Name, Array: true})
		t := g.temp(cid)
		g.b.NewObject(t, fmt.Sprintf("arr@%d(%s[])", ex.Line, ex.Elem.Name), cid)
		return t, Type{Name: ex.Elem.Name, Array: true}, nil

	case *FieldAccess:
		fi, base, err := g.resolveFieldAccess(ex)
		if err != nil {
			return pag.NoNode, Type{}, err
		}
		return g.loadField(fi, base, ex.Line)

	case *IndexExpr:
		base, typ, err := g.genExpr(ex.X)
		if err != nil {
			return pag.NoNode, Type{}, err
		}
		if _, _, err := g.genExpr(ex.Index); err != nil {
			return pag.NoNode, Type{}, err
		}
		elem := Type{Name: typ.Name} // T[] indexes to T
		if base == pag.NoNode || !elem.IsRef() {
			return pag.NoNode, elem, nil
		}
		g.deref(base, "[i]", ex.Line)
		t := g.temp(g.classID(elem))
		g.b.ArrayLoad(t, base)
		return t, elem, nil

	case *CastExpr:
		v, _, err := g.genExpr(ex.X)
		if err != nil {
			return pag.NoNode, Type{}, err
		}
		if !ex.Target.IsRef() {
			return pag.NoNode, ex.Target, nil
		}
		t := g.temp(g.classID(ex.Target))
		if v != pag.NoNode {
			g.b.Copy(t, v)
		}
		g.casts = append(g.casts, pag.CastSite{
			Var:    t,
			Target: g.classID(ex.Target),
			Name:   fmt.Sprintf("(%s)@%s:%d", ex.Target, g.cur.qualified(), ex.Line),
		})
		return t, ex.Target, nil

	case *CallExpr:
		return g.genCall(ex)
	}
	return pag.NoNode, Type{}, fmt.Errorf("mj: unknown expression %T", e)
}

// declaredType recovers the declared type of a variable from its PAG class
// (best effort; only used for member lookup on the static type).
func (g *generator) declaredType(name string) Type {
	n := g.vars[name]
	if n == pag.NoNode {
		return Type{Name: "int"}
	}
	cls := g.b.G.Node(n).Class
	if cls == pag.NoClass {
		return Type{Name: "Object"}
	}
	cname := g.b.G.ClassInfo(cls).Name
	if strings.HasSuffix(cname, "[]") {
		return Type{Name: strings.TrimSuffix(cname, "[]"), Array: true}
	}
	return Type{Name: cname}
}

// loadField lowers field reads.
func (g *generator) loadField(fi *fieldInfo, base pag.NodeID, line int) (pag.NodeID, Type, error) {
	if fi.decl.Static {
		return fi.gnode, fi.decl.Type, nil // NoNode for int statics
	}
	if base == pag.NoNode {
		return pag.NoNode, Type{}, errf(line, "instance field %s used without receiver", fi.decl.Name)
	}
	g.deref(base, "."+fi.decl.Name, line)
	if fi.fid == pag.NoField {
		return pag.NoNode, fi.decl.Type, nil // int field
	}
	t := g.temp(g.classID(fi.decl.Type))
	g.b.Load(t, base, fi.fid)
	return t, fi.decl.Type, nil
}

// genCall lowers method calls: static and constructor calls are wired
// directly; instance calls through a receiver become VirtualCall records
// resolved by the Andersen pass.
func (g *generator) genCall(call *CallExpr) (pag.NodeID, Type, error) {
	// C.m(...): static call via class name.
	if id, ok := call.Recv.(*Ident); ok {
		if _, isVar := g.vars[id.Name]; !isVar {
			if ci, isClass := g.classes[id.Name]; isClass {
				mi := lookupMethod(ci, call.Name, len(call.Args))
				if mi == nil || !mi.decl.Static {
					return pag.NoNode, Type{}, errf(call.Line, "no static method %s.%s/%d", id.Name, call.Name, len(call.Args))
				}
				return g.loweredDirect(mi, pag.NoNode, call)
			}
		}
	}

	// m(...): implicit receiver or own static.
	if call.Recv == nil {
		mi := lookupMethod(g.cur.owner, call.Name, len(call.Args))
		if mi == nil {
			return pag.NoNode, Type{}, errf(call.Line, "no method %s/%d in %s", call.Name, len(call.Args), g.cur.owner.decl.Name)
		}
		if mi.decl.Static {
			return g.loweredDirect(mi, pag.NoNode, call)
		}
		if g.cur.this == pag.NoNode {
			return pag.NoNode, Type{}, errf(call.Line, "instance method %s called from static context", call.Name)
		}
		return g.genVirtual(g.cur.this, Type{Name: g.cur.owner.decl.Name}, call)
	}

	// recv.m(...): virtual dispatch.
	recv, typ, err := g.genExpr(call.Recv)
	if err != nil {
		return pag.NoNode, Type{}, err
	}
	if recv == pag.NoNode {
		return pag.NoNode, Type{}, errf(call.Line, "method call on non-reference")
	}
	return g.genVirtual(recv, typ, call)
}

// loweredDirect wires a monomorphic (static or constructor) call.
func (g *generator) loweredDirect(mi *methodInfo, recv pag.NodeID, call *CallExpr) (pag.NodeID, Type, error) {
	return g.finishDirect(mi, recv, call.Args, call.Line)
}

// directCall wires constructor invocation from NewObject.
func (g *generator) directCall(mi *methodInfo, recv pag.NodeID, args []Expr, line int) error {
	_, _, err := g.finishDirect(mi, recv, args, line)
	return err
}

func (g *generator) finishDirect(mi *methodInfo, recv pag.NodeID, args []Expr, line int) (pag.NodeID, Type, error) {
	if len(args) != len(mi.params) {
		return pag.NoNode, Type{}, errf(line, "call to %s with %d args, want %d", mi.qualified(), len(args), len(mi.params))
	}
	cs := g.b.CallSite(g.cur.id, fmt.Sprintf("%s:%d", g.cur.qualified(), line))
	g.b.G.AddCallTarget(cs, mi.id)
	if recv != pag.NoNode && mi.this != pag.NoNode {
		g.b.Arg(cs, recv, mi.this)
	}
	for i, a := range args {
		v, _, err := g.genExpr(a)
		if err != nil {
			return pag.NoNode, Type{}, err
		}
		if v != pag.NoNode && mi.params[i] != pag.NoNode {
			g.b.Arg(cs, v, mi.params[i])
		}
	}
	var lhs pag.NodeID = pag.NoNode
	if mi.ret != pag.NoNode {
		lhs = g.temp(g.classID(mi.decl.Ret))
		g.b.Ret(cs, mi.ret, lhs)
	}
	return lhs, mi.decl.Ret, nil
}

// genVirtual records a virtual call for Andersen resolution.
func (g *generator) genVirtual(recv pag.NodeID, recvType Type, call *CallExpr) (pag.NodeID, Type, error) {
	// Static type check: the method must exist somewhere in the receiver's
	// declared class chain (gives nice frontend errors; dispatch itself is
	// dynamic).
	ci := g.staticClassOf(recvType)
	mi := lookupMethod(ci, call.Name, len(call.Args))
	if mi == nil {
		// Tolerate lookup through Object-typed receivers: dispatch may
		// still succeed dynamically. Borrow any declaration for the
		// static return type.
		for _, c := range g.classes {
			if m := lookupMethod(c, call.Name, len(call.Args)); m != nil {
				mi = m
				break
			}
		}
		if mi == nil {
			return pag.NoNode, Type{}, errf(call.Line, "no method %s/%d anywhere", call.Name, len(call.Args))
		}
	}
	g.deref(recv, "."+call.Name+"()", call.Line)

	actuals := []pag.NodeID{recv}
	for _, a := range call.Args {
		v, _, err := g.genExpr(a)
		if err != nil {
			return pag.NoNode, Type{}, err
		}
		actuals = append(actuals, v)
	}
	retType := TypeVoid
	if mi != nil {
		retType = mi.decl.Ret
	}
	var lhs pag.NodeID = pag.NoNode
	if retType.IsRef() {
		lhs = g.temp(g.classID(retType))
	}
	cs := g.b.CallSite(g.cur.id, fmt.Sprintf("%s:%d", g.cur.qualified(), call.Line))
	g.virtualCalls = append(g.virtualCalls, andersen.VirtualCall{
		Site: cs, Recv: recv, Sig: call.Name + "/" + itoa(len(call.Args)),
		Actuals: actuals, Lhs: lhs,
	})
	return lhs, retType, nil
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }
