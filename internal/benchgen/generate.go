package benchgen

import (
	"fmt"
	"math/rand"

	"dynsum/internal/pag"
)

// Generate builds the synthetic program for profile p (already scaled) and
// the given seed. The same (profile, seed) always produces the same
// program.
//
// Construction, sized by the profile's per-kind budgets:
//
//   - A library of container classes, each with a field and a
//     setter/getter pair reached through a wrapper layer — shared,
//     high-fan-in code, the source of PPTA reuse.
//   - Payload classes with a small subtype lattice, so casts have
//     meaningful verdicts.
//   - Factory methods (fresh, via-helper, and caching violators).
//   - Application "cells": allocate a container and a payload, pipe the
//     payload through assign chains and the wrapper layer into the
//     container, read it back, cast it. Some cells store null (NullDeref
//     violations), some route their payload through a static variable.
//   - Deficit fillers that top up each edge kind towards its budget with
//     self-contained resolvable patterns.
//
// Query sites (Casts/Derefs/Factories metadata) are emitted up to the
// profile's per-client query counts, cycling over the distinct underlying
// sites when the program has fewer sites than queries — re-querying a site
// is exactly what IDE clients do and what the summary cache exploits.
func Generate(p Profile, seed int64) *pag.Program {
	prog := generate(p, seed)
	prog.G.Freeze()
	return prog
}

// generate builds the program without freezing it.
func generate(p Profile, seed int64) *pag.Program {
	g := &genState{
		p:   p,
		rng: rand.New(rand.NewSource(seed)),
		b:   pag.NewBuilder(),
		left: budgets{
			objects: p.Objects, assign: p.Assign, load: p.Load, store: p.Store,
			entry: p.Entry, exit: p.Exit, aglobal: p.AssignGlobal,
			vars: p.Vars, methods: p.Methods,
		},
	}
	g.buildClasses()
	g.buildLibrary()
	g.buildFactories()
	g.buildCells()
	g.fillDeficits()
	return g.finish()
}

type budgets struct {
	objects, assign, load, store, entry, exit, aglobal int
	vars, methods                                      int
}

type container struct {
	cls     pag.ClassID
	field   pag.FieldID
	set     pag.MethodID // set(this, v) { this.f = v }
	setThis pag.NodeID
	setV    pag.NodeID
	get     pag.MethodID // get(this) { return this.f }
	getThis pag.NodeID
	getRet  pag.NodeID
	// Two wrapper layers, like real library call chains
	// (cells call wset/wget; wset calls set1 calls set, etc.).
	wset              pag.MethodID
	wsetThis, wsetV   pag.NodeID
	wget              pag.MethodID
	wgetThis, wgetRet pag.NodeID
}

type factory struct {
	site pag.FactorySite
	good bool
}

type genState struct {
	p    Profile
	rng  *rand.Rand
	b    *pag.Builder
	left budgets

	object        pag.ClassID
	payloads      []pag.ClassID // [PA, PB(<:PA), PC, PD(<:PC)]
	payloadFields []pag.FieldID
	containers    []container
	factories     []factory
	globals       []pag.NodeID

	idMethod pag.MethodID // id(p) { return p } sink for entry/exit filling
	idParam  pag.NodeID
	idRet    pag.NodeID

	casts  []pag.CastSite
	derefs []pag.DerefSite

	// segVars buffers the variables of the assign-chain segment being
	// grown, so cycle closing (cyclic profiles) can wire chord edges
	// between segment members. Reused across segments.
	segVars []pag.NodeID

	methSeq int
}

// closeCycle turns the buffered chain segment into an assign cycle: a
// back edge from the newest variable to the segment start, plus a chord
// every third member (loop-carried copy webs are dense, not simple
// rings). All edges are paid from the assign budget. No-op until the
// segment reaches CycleLen.
func (g *genState) closeCycle() bool {
	if g.p.CycleLen <= 0 || len(g.segVars) < g.p.CycleLen || g.left.assign <= 0 {
		return false
	}
	last := g.segVars[len(g.segVars)-1]
	g.b.Copy(g.segVars[0], last)
	g.left.assign--
	for k := 3; k < len(g.segVars)-1 && g.left.assign > 0; k += 3 {
		g.b.Copy(g.segVars[k-1], g.segVars[k])
		g.left.assign--
	}
	g.segVars = g.segVars[:0]
	return true
}

// segPush appends v to the open chain segment (cyclic profiles only).
func (g *genState) segPush(v pag.NodeID) {
	if g.p.CycleLen > 0 {
		g.segVars = append(g.segVars, v)
	}
}

// segReset abandons the open segment (the chain left the method or went
// through a call hop, so a cycle across it would be illegal or bogus).
func (g *genState) segReset() { g.segVars = g.segVars[:0] }

func (g *genState) method(prefix string, cls pag.ClassID) pag.MethodID {
	g.methSeq++
	g.left.methods--
	return g.b.Method(fmt.Sprintf("%s%d", prefix, g.methSeq), cls)
}

func (g *genState) local(m pag.MethodID, name string, cls pag.ClassID) pag.NodeID {
	g.left.vars--
	return g.b.Local(m, name, cls)
}

func (g *genState) buildClasses() {
	g.object = g.b.Class("Object", pag.NoClass)
	pa := g.b.Class("PA", g.object)
	pb := g.b.Class("PB", pa)
	pc := g.b.Class("PC", g.object)
	pd := g.b.Class("PD", pc)
	g.payloads = []pag.ClassID{pa, pb, pc, pd}
	for i := range g.payloads {
		g.payloadFields = append(g.payloadFields, g.b.G.AddField(fmt.Sprintf("P%d.data", i)))
	}
	nGlobals := max(1, g.p.AssignGlobal/4)
	for i := 0; i < nGlobals; i++ {
		g.globals = append(g.globals, g.b.GlobalVar(fmt.Sprintf("G.g%d", i), g.object))
	}
}

// buildLibrary creates the shared container classes: the high-fan-in
// methods whose local paths DYNSUM summarises once and reuses.
func (g *genState) buildLibrary() {
	nContainers := min(max(1, g.p.Methods/8), 96)
	for i := 0; i < nContainers; i++ {
		cls := g.b.Class(fmt.Sprintf("C%d", i), g.object)
		fld := g.b.G.AddField(fmt.Sprintf("C%d.f", i))
		c := container{cls: cls, field: fld}

		c.set = g.method("lib.set", cls)
		c.setThis = g.local(c.set, "this", cls)
		c.setV = g.local(c.set, "v", g.object)
		g.b.Store(c.setThis, fld, c.setV)
		g.left.store--

		c.get = g.method("lib.get", cls)
		c.getThis = g.local(c.get, "this", cls)
		c.getRet = g.local(c.get, "ret", g.object)
		g.b.Load(c.getRet, c.getThis, fld)
		g.left.load--

		// Middle wrapper layer: mset/mget delegate to set/get. (The prefix
		// must not be another prefix plus digits: method() appends a global
		// sequence number, and "lib.set1"+seq 3 would alias "lib.set"+seq 13
		// — ambiguous names break open-world spec resolution by name.)
		set1 := g.method("lib.mset", cls)
		set1This := g.local(set1, "this", cls)
		set1V := g.local(set1, "v", g.object)
		g.b.Call(set1, c.set, "", []pag.NodeID{set1This, set1V}, []pag.NodeID{c.setThis, c.setV}, pag.NoNode, pag.NoNode)
		g.left.entry -= 2

		get1 := g.method("lib.mget", cls)
		get1This := g.local(get1, "this", cls)
		get1Ret := g.local(get1, "ret", g.object)
		g.b.Call(get1, c.get, "", []pag.NodeID{get1This}, []pag.NodeID{c.getThis}, c.getRet, get1Ret)
		g.left.entry--
		g.left.exit--

		// Outer wrapper layer: what application cells call.
		c.wset = g.method("lib.wset", cls)
		c.wsetThis = g.local(c.wset, "this", cls)
		c.wsetV = g.local(c.wset, "v", g.object)
		tmp := g.local(c.wset, "t", g.object)
		g.b.Copy(tmp, c.wsetV)
		g.left.assign--
		g.b.Call(c.wset, set1, "", []pag.NodeID{c.wsetThis, tmp}, []pag.NodeID{set1This, set1V}, pag.NoNode, pag.NoNode)
		g.left.entry -= 2

		c.wget = g.method("lib.wget", cls)
		c.wgetThis = g.local(c.wget, "this", cls)
		c.wgetRet = g.local(c.wget, "ret", g.object)
		g.b.Call(c.wget, get1, "", []pag.NodeID{c.wgetThis}, []pag.NodeID{get1This}, get1Ret, c.wgetRet)
		g.left.entry--
		g.left.exit--

		g.containers = append(g.containers, c)
	}

	g.idMethod = g.method("lib.id", g.object)
	g.idParam = g.local(g.idMethod, "p", g.object)
	g.idRet = g.local(g.idMethod, "ret", g.object)
	g.b.Copy(g.idRet, g.idParam)
	g.left.assign--
}

// buildFactories creates factory methods: fresh allocators (proven), a
// via-helper variant (proven across a call), and caching violators that
// return a static singleton.
func (g *genState) buildFactories() {
	n := min(g.p.QFactoryM, max(2, g.left.methods/4))
	for i := 0; i < n; i++ {
		cls := g.payloads[g.rng.Intn(len(g.payloads))]
		// Deterministic mix with the violator early so even tiny scales
		// get every verdict; one caching violator in ten, the rest fresh
		// (60%) or boxed (30%).
		kind := [10]int{0, 4, 3, 1, 0, 3, 2, 0, 3, 1}[i%10]
		switch {
		case kind < 3: // fresh: mk() { return new P }
			m := g.method("app.mk", cls)
			ret := g.local(m, "ret", cls)
			g.b.NewObject(ret, "o", cls)
			g.left.objects--
			g.factories = append(g.factories, factory{good: true,
				site: pag.FactorySite{Method: m, Ret: ret, Name: g.b.G.MethodInfo(m).Name}})
		case kind < 4: // boxed: the fresh object round-trips through a
			// method-local box with a factory-private field. Still
			// provably fresh — and provable already by the field-based
			// first pass (the private field has a single store), so
			// REFINEPTS terminates early here; the paper explains
			// FactoryM's small speedup by exactly this kind of early
			// satisfaction.
			m := g.method("app.mkBoxed", cls)
			fld := g.b.G.AddField(fmt.Sprintf("F%d.box", i))
			box := g.local(m, "box", g.object)
			g.b.NewObject(box, "ob", g.object)
			fresh := g.local(m, "fresh", cls)
			g.b.NewObject(fresh, "o", cls)
			g.left.objects -= 2
			g.b.Store(box, fld, fresh)
			g.left.store--
			ret := g.local(m, "ret", cls)
			g.b.Load(ret, box, fld)
			g.left.load--
			g.factories = append(g.factories, factory{good: true,
				site: pag.FactorySite{Method: m, Ret: ret, Name: g.b.G.MethodInfo(m).Name}})
		default: // caching violator: mk() { return G }
			m := g.method("app.mkCached", cls)
			ret := g.local(m, "ret", cls)
			gv := g.globals[g.rng.Intn(len(g.globals))]
			g.b.Copy(ret, gv)
			g.left.aglobal--
			g.factories = append(g.factories, factory{good: false,
				site: pag.FactorySite{Method: m, Ret: ret, Name: g.b.G.MethodInfo(m).Name}})
		}
	}
	// Someone must populate the caches: a setup method storing fresh
	// payloads into the globals.
	setup := g.method("app.setup", g.object)
	for _, gv := range g.globals {
		v := g.local(setup, "v", g.payloads[0])
		g.b.NewObject(v, "cached", g.payloads[0])
		g.left.objects--
		g.b.Copy(gv, v)
		g.left.aglobal--
	}
}

// buildCells emits application cells until the object budget (the scarcest
// structural resource) is spent. The paper's benchmarks have far more
// objects than methods (reachable JDK code is allocation-heavy), so many
// cells share one application method.
func (g *genState) buildCells() {
	if len(g.containers) == 0 {
		return
	}
	nApps := max(1, g.left.methods/2) // keep methods for hop sinks and fillDeficits
	apps := make([]pag.MethodID, nApps)
	for i := range apps {
		apps[i] = g.method("app.run", g.object)
	}
	// Per-app identity sinks for call-hops, so their fan-in stays
	// bounded (a single shared sink would accumulate entry edges from
	// every cell and dominate all traversals).
	hopSinks := make([]struct {
		m    pag.MethodID
		p, r pag.NodeID
	}, nApps)
	for i := range hopSinks {
		m := g.method("app.hop", g.object)
		hopSinks[i].m = m
		hopSinks[i].p = g.local(m, "p", g.object)
		hopSinks[i].r = g.local(m, "r", g.object)
		g.b.Copy(hopSinks[i].r, hopSinks[i].p)
		g.left.assign--
	}
	// Assign chains soak up much of the assign/var budgets (the paper's
	// assign-to-new ratios are high), but a quarter of the variable
	// budget is reserved for the deficit fillers; the leftover assign
	// budget is covered by chain "rungs" in fillDeficits, which reuse
	// variables.
	cellsEstimate := max(1, g.left.objects*2/5)
	chainLen := max(1, g.left.vars*3/4/cellsEstimate-8)
	if perCell := g.left.assign / cellsEstimate; chainLen > perCell {
		chainLen = max(1, perCell)
	}
	// A diamond step spends 3 variables and 4 assigns where a plain copy
	// spends 1 and 1; shorten the chains so the per-cell budgets still
	// cover them (steps degrade to plain copies once the assign budget
	// runs low, so a generous length costs nothing).
	if g.p.Diamond {
		chainLen = max(4, chainLen/2)
	}
	// Diamond profiles concentrate runs of consecutive cells in one app
	// method instead of round-robining: together with the loop-carried
	// links below, each method accumulates one deep shared copy DAG whose
	// query sites' closures nest — the overlap the memoisation exploits.
	appOf := func(cell int) int { return cell % nApps }
	if g.p.Diamond {
		appOf = func(cell int) int { return (cell / 8) % nApps }
	}
	// Cyclic profiles model each app method as one big loop over its
	// cells: every cell's payload chain is linked to the previous cell's
	// tail (a loop-carried dependence), and the last tail closes back to
	// the first head. Together with the per-CycleLen copy webs inside
	// each chain this makes the whole method's payload flow one strongly
	// connected component — the redundant-propagation shape cycle
	// collapse exists for.
	type loopState struct{ head, tail pag.NodeID }
	loops := make([]loopState, nApps)
	var chainDerefs []pag.DerefSite // per-cell buffer for deepest-first emission
	for i := range loops {
		loops[i] = loopState{head: pag.NoNode, tail: pag.NoNode}
	}
	// When the global-edge budget is rich relative to the cell count (a
	// low-locality profile), route part of each payload chain through
	// id() calls: the queried paths then really cross method boundaries,
	// which is what low locality means for the analyses. Each cell's
	// fixed calls (wset: 2 entries; wget: 1 entry, 1 exit) are reserved
	// first on both budgets.
	hopsByEntry := (g.left.entry - cellsEstimate*3) / max(1, cellsEstimate)
	hopsByExit := (g.left.exit - cellsEstimate) / max(1, cellsEstimate)
	callHops := min(max(min(hopsByEntry, hopsByExit), 0), chainLen/2)

	for cell := 0; g.left.objects >= 2; cell++ {
		ci := g.rng.Intn(len(g.containers))
		c := g.containers[ci]
		// Most cells store the payload class canonically associated with
		// their container, so many container fields are homogeneous and
		// field-based reasoning already proves their casts — the
		// situation where REFINEPTS's early termination shines (paper
		// §5.3 explains SafeCast's smaller speedup this way). A fifth of
		// the cells mix classes, which only context-sensitive,
		// field-sensitive analysis can untangle.
		pcls := g.payloads[ci%len(g.payloads)]
		if g.rng.Intn(5) == 0 {
			pcls = g.payloads[g.rng.Intn(len(g.payloads))]
		}
		m := apps[appOf(cell)]

		cv := g.local(m, "c", c.cls)
		g.b.NewObject(cv, "oc", c.cls)
		pv := g.local(m, "p", pcls)
		g.b.NewObject(pv, "op", pcls)
		g.left.objects -= 2

		// Payload chain p -> t1 -> ... -> tn, with a few dereference sites
		// along it (distinct query variables for NullDeref). The first
		// callHops hops go through the id() sink instead of a local
		// assignment (see above). A cyclic profile (CycleLen > 0) closes
		// every CycleLen consecutive local copies into an assign cycle —
		// the loop-carried copy web of a real loop — paid from the assign
		// budget; segments interrupted by a call hop never close, so all
		// cycles stay strictly method-local.
		t := pv
		segHead := pv // head of the chain's final hop-free local segment
		g.segReset()
		g.segPush(t)
		sink := hopSinks[appOf(cell)]
		for i := 0; i < chainLen && g.left.assign > 0 && g.left.vars > 0; i++ {
			nt := g.local(m, fmt.Sprintf("t%d", i), pcls)
			if i < callHops && g.left.entry > 0 && g.left.exit > 0 {
				g.b.Call(m, sink.m, "", []pag.NodeID{t}, []pag.NodeID{sink.p}, sink.r, nt)
				g.left.entry--
				g.left.exit--
				g.segReset()
				segHead = nt
			} else if g.p.Diamond && g.left.assign >= 4 && g.left.vars >= 2 {
				// Diamond step: t forks into two parallel copies that
				// rejoin at nt, so nt has two incoming assign paths and a
				// backwards (S1) traversal re-converges at t. No cycle is
				// formed — both paths point strictly upstream.
				da := g.local(m, fmt.Sprintf("da%d", i), pcls)
				db := g.local(m, fmt.Sprintf("db%d", i), pcls)
				g.b.Copy(da, t)
				g.b.Copy(db, t)
				g.b.Copy(nt, da)
				g.b.Copy(nt, db)
				g.left.assign -= 4
			} else {
				g.b.Copy(nt, t)
				g.left.assign--
				g.segPush(nt)
				g.closeCycle()
			}
			t = nt
			// Diamond profiles register a dereference every other step, so
			// the NullDeref batch queries many points of the same web and
			// the per-state memoisation has overlap to exploit; the base
			// profiles keep the paper-calibrated two sites per chain.
			if g.p.Diamond {
				if i%2 == 1 {
					chainDerefs = append(chainDerefs, pag.DerefSite{Var: nt, Name: fmt.Sprintf("cell%d.t%d.use", cell, i)})
				}
			} else if i == chainLen/3 || i == 2*chainLen/3 {
				g.derefs = append(g.derefs, pag.DerefSite{Var: nt, Name: fmt.Sprintf("cell%d.t%d.use", cell, i)})
			}
		}
		// Emit the cell's chain sites deepest-first: an IDE batch is not
		// topologically sorted, and the order is what separates the two
		// memoisation halves — the first (deepest) query walks the whole
		// prefix and writes every interior state back, so the cell's
		// remaining sites are pure cache hits; in upstream-first order
		// start-state caching alone could serve them via splices.
		for i := len(chainDerefs) - 1; i >= 0; i-- {
			g.derefs = append(g.derefs, chainDerefs[i])
		}
		chainDerefs = chainDerefs[:0]

		// Loop-carried dependence: this iteration's payload also derives
		// from the previous iteration's result (cyclic and diamond
		// profiles). The link lands on the head of the chain's final local
		// segment — never before a call hop — so for cyclic profiles the
		// method-wide cycle is closed by assign edges alone and stays a
		// legal local SCC. Diamond profiles thread the same links but
		// never close the loop (see below), leaving one method-wide copy
		// DAG whose downstream closures contain all upstream ones.
		if (g.p.CycleLen > 0 || g.p.Diamond) && g.left.assign > 0 {
			appIdx := appOf(cell)
			if ls := &loops[appIdx]; ls.head == pag.NoNode {
				ls.head, ls.tail = segHead, t
			} else {
				g.b.Copy(segHead, ls.tail)
				g.left.assign--
				ls.tail = t
			}
		}

		// Store the payload (or null, every 5th cell) through the wrapper.
		stored := t
		nullCell := cell%5 == 4
		if nullCell {
			nv := g.local(m, "n", pcls)
			g.b.NullAssign(nv)
			stored = nv
		}
		g.b.Call(m, c.wset, "", []pag.NodeID{cv, stored}, []pag.NodeID{c.wsetThis, c.wsetV}, pag.NoNode, pag.NoNode)
		g.left.entry -= 2
		g.derefs = append(g.derefs, pag.DerefSite{Var: cv, Name: fmt.Sprintf("cell%d.c.wset", cell)})

		// Read it back.
		rv := g.local(m, "r", pcls)
		g.b.Call(m, c.wget, "", []pag.NodeID{cv}, []pag.NodeID{c.wgetThis}, c.wgetRet, rv)
		g.left.entry--
		g.left.exit--
		g.derefs = append(g.derefs, pag.DerefSite{Var: rv, Name: fmt.Sprintf("cell%d.r.use", cell)})

		// Cast the result: same class (needs context sensitivity),
		// supertype (easy), or a wrong class (violation). Deterministic
		// per cell index, and kept disjoint from the null cells so a
		// wrong cast always has a real payload to flag.
		target := pcls
		switch cell % 7 {
		case 5:
			target = g.object // trivially safe
		case 2:
			target = g.payloads[(indexOf(g.payloads, pcls)+2)%len(g.payloads)] // wrong branch
		}
		castTmp := g.local(m, "cast", target)
		g.b.Copy(castTmp, rv)
		g.left.assign--
		g.casts = append(g.casts, pag.CastSite{Var: castTmp, Target: target,
			Name: fmt.Sprintf("cell%d.cast", cell)})
		// A second, locally-provable cast on the chain keeps the cast
		// density near the paper's (xalan has ~0.6 casts per object).
		g.casts = append(g.casts, pag.CastSite{Var: t, Target: pcls,
			Name: fmt.Sprintf("cell%d.cast2", cell)})

		// Extra paired field traffic on the payload, towards the
		// load/store budgets.
		pf := g.payloadFields[indexOf(g.payloads, pcls)]
		for g.left.store > 0 && g.left.load > 0 && g.rng.Intn(3) == 0 {
			src := g.local(m, "s", pcls)
			g.b.NewObject(src, "os", pcls)
			g.left.objects--
			g.b.Store(t, pf, src)
			g.left.store--
			dst := g.local(m, "d", pcls)
			g.b.Load(dst, t, pf)
			g.left.load--
			g.derefs = append(g.derefs, pag.DerefSite{Var: t, Name: fmt.Sprintf("cell%d.p.f", cell)})
			break
		}

		// Route some payloads through a static (context cleared).
		if cell%6 == 5 && g.left.aglobal >= 2 {
			gv := g.globals[g.rng.Intn(len(g.globals))]
			g.b.Copy(gv, t)
			back := g.local(m, "gb", pcls)
			g.b.Copy(back, gv)
			g.left.aglobal -= 2
		}
	}

	// Close each app method's loop: the last iteration's payload feeds the
	// first (deterministic slice order; see the loop-carried dependence
	// above). Diamond profiles leave the loop open — the whole point is a
	// deep acyclic DAG that condensation cannot collapse.
	if !g.p.Diamond {
		for _, ls := range loops {
			if ls.head != pag.NoNode && ls.tail != ls.head && g.left.assign > 0 {
				g.b.Copy(ls.head, ls.tail)
				g.left.assign--
			}
		}
	}
}

// fillDeficits tops up each edge-kind budget with small self-contained
// patterns so the generated statistics track the profile. Order matters:
// the structural kinds (load/store, entry/exit, new, global) claim their
// variables first; the assign chain then soaks up whatever variable and
// assign budget remains.
func (g *genState) fillDeficits() {
	m := g.method("app.fill", g.object)
	cls := g.payloads[0]
	fld := g.payloadFields[0]

	// Void sink and pure producer, for filling entry and exit
	// independently.
	sink := g.method("lib.sink", g.object)
	sinkP := g.local(sink, "p", cls)
	prod := g.method("lib.prod", g.object)
	prodRet := g.local(prod, "ret", cls)
	g.b.NewObject(prodRet, "o", cls)
	g.left.objects--

	anchor := g.local(m, "a0", cls)
	g.b.NewObject(anchor, "oa", cls)
	g.left.objects--

	// Paired store/loads on a fresh base (resolvable, field-sensitive).
	base := g.local(m, "b0", cls)
	g.b.NewObject(base, "ob", cls)
	g.left.objects--
	for (g.left.store > 0 || g.left.load > 0) && g.left.vars > 0 {
		if g.left.store > 0 {
			g.b.Store(base, fld, anchor)
			g.left.store--
			base2 := g.local(m, "bs", cls)
			g.b.Copy(base2, base)
			base = base2 // distinct edge endpoints each round
		}
		if g.left.load > 0 {
			d := g.local(m, "bl", cls)
			g.b.Load(d, base, fld)
			g.left.load--
		}
	}
	// Matched entry/exit pairs through the id sink, then the remainders
	// one-sidedly through the void sink / pure producer. One result
	// variable serves every call: the edges stay distinct because each
	// call site carries a fresh label.
	ir := g.local(m, "ir", cls)
	for g.left.entry > 0 && g.left.exit > 0 {
		g.b.Call(m, g.idMethod, "", []pag.NodeID{anchor}, []pag.NodeID{g.idParam}, g.idRet, ir)
		g.left.entry--
		g.left.exit--
	}
	for g.left.entry > 0 {
		g.b.Call(m, sink, "", []pag.NodeID{anchor}, []pag.NodeID{sinkP}, pag.NoNode, pag.NoNode)
		g.left.entry--
	}
	for g.left.exit > 0 {
		g.b.Call(m, prod, "", nil, nil, prodRet, ir)
		g.left.exit--
	}
	// Remaining allocations.
	for g.left.objects > 0 && g.left.vars > 0 {
		v := g.local(m, "ov", cls)
		g.b.NewObject(v, "of", cls)
		g.left.objects--
	}
	// Global traffic.
	for g.left.aglobal > 0 {
		gv := g.globals[g.rng.Intn(len(g.globals))]
		if g.left.aglobal%2 == 0 {
			g.b.Copy(gv, anchor)
		} else if g.left.vars > 0 {
			d := g.local(m, "gr", cls)
			g.b.Copy(d, gv)
		} else {
			break
		}
		g.left.aglobal--
	}
	// Assign chains soak up the remaining variables, closed into cycles
	// every CycleLen steps on the cyclic profiles (see buildCells).
	chain := []pag.NodeID{anchor}
	t := anchor
	g.segReset()
	g.segPush(t)
	for g.left.assign > 0 && g.left.vars > 0 {
		nt := g.local(m, "af", cls)
		g.b.Copy(nt, t)
		g.left.assign--
		g.segPush(nt)
		g.closeCycle()
		t = nt
		chain = append(chain, nt)
	}
	// ...and any assign budget beyond the variable budget becomes forward
	// "rungs" between existing chain variables: acyclic, points-to sets
	// unchanged, no fresh variables needed (real PAGs have ~1.6 assigns
	// per variable, so plain chains cannot absorb the whole budget).
	for gap := 2; g.left.assign > 0 && gap < len(chain); gap++ {
		for i := 0; i+gap < len(chain) && g.left.assign > 0; i++ {
			g.b.Copy(chain[i+gap], chain[i])
			g.left.assign--
		}
	}
}

// finish assembles the Program. Cast and dereference query lists are
// truncated to the profile's per-client counts — the generator produces a
// surplus of distinct sites, so queries are never duplicated (duplicated
// queries would hand REFINEPTS free memo hits and bias Table 4). Factory
// queries may cycle: distinct factory methods are bounded by the method
// budget, and re-querying a factory is what a client checking many call
// sites does anyway.
func (g *genState) finish() *pag.Program {
	prog := pag.NewProgram(g.p.Name, g.b.G)
	prog.Casts = truncate(g.casts, g.p.QSafeCast)
	prog.Derefs = truncate(g.derefs, g.p.QNullDeref)
	sites := make([]pag.FactorySite, len(g.factories))
	for i, f := range g.factories {
		sites[i] = f.site
	}
	prog.Factories = cycle(sites, g.p.QFactoryM)
	return prog
}

// truncate caps sites at n (keeping all when fewer were produced).
func truncate[T any](sites []T, n int) []T {
	if n > 0 && len(sites) > n {
		return sites[:n]
	}
	return sites
}

// cycle repeats sites until n entries (or returns all when n exceeds 0
// sites).
func cycle[T any](sites []T, n int) []T {
	if len(sites) == 0 || n <= 0 {
		return sites
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sites[i%len(sites)])
	}
	return out
}

func indexOf(s []pag.ClassID, c pag.ClassID) int {
	for i, x := range s {
		if x == c {
			return i
		}
	}
	return 0
}
