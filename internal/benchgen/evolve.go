package benchgen

import (
	"fmt"

	"dynsum/internal/delta"
	"dynsum/internal/pag"
)

// This file builds the load-order replay workloads behind the evolve
// experiments: the program of a Table 3 profile does not arrive at once
// but in K waves — the class-loading order a JVM would exhibit, modelled
// as method creation order, which in the generator runs library containers
// first, then factories, then application cells — with client queries
// interleaved after every wave.
//
// A replay has two equivalent consumers, and the equivalence IS the test:
//
//   - the delta path: wave 0 becomes a frozen base Program; each later
//     wave becomes a delta.Log applied to a live engine (WaveLog), which
//     absorbs it as an epoch overlay without re-freezing;
//   - the rebuild path: BuildPrefix(k) constructs the full prefix graph
//     (waves 0..k) from scratch, validates, freezes and condenses it — the
//     cost the overlay exists to avoid, and the oracle its answers must
//     match.
//
// IDs are globally consistent by construction: methods, nodes and call
// sites are renumbered wave-major at partition time, and both consumers
// materialise them in the same order, so a variable means the same thing
// to an evolved engine and to every rebuilt prefix.

// DefaultEvolveWaves is the wave count the experiments replay.
const DefaultEvolveWaves = 4

// evolveBaseShare is the fraction of the program's EDGE MASS loaded in
// the base wave — the JVM-startup bulk; later waves split the remainder
// evenly, again by edge mass. Splitting by mass rather than method count
// matters because the generated programs concentrate their edges in the
// late (application) methods: a method-count split would make the "base"
// edge-poor and every wave a re-freeze-sized avalanche, where a real load
// order front-loads the bulk and then trickles. Keeping later waves small
// is also what keeps the overlay under the auto-compaction trigger across
// a typical replay.
const evolveBaseShare = 0.85

// evolveChurnPerWave is how many already-loaded methods each later wave
// recompiles (the JIT/IDE churn half of the dynamic scenario): the
// redefinition re-emits the method's current body — recompilation rarely
// changes the PAG shape, and the re-added edges cancel against the drop —
// plus one fresh allocation chained into an existing local, the
// recompile-with-inlining shape. The rebuild oracle needs no edge removal
// for this: re-added edges deduplicate, the additions apply as usual.
const evolveChurnPerWave = 2

// EvolveBenchmarks lists the Table 3 rows replayed as load orders
// (soot-c-evolve etc. via GenerateEvolve).
var EvolveBenchmarks = []string{"soot-c", "bloat", "xalan"}

// EvolveWave is one load-order instalment: the program elements that
// arrive together, in final (wave-major) IDs, plus the NullDeref query
// sites that become available with them.
type EvolveWave struct {
	Methods   []pag.Method
	CallSites []pag.CallSite
	Nodes     []pag.Node
	Edges     []pag.Edge
	Derefs    []pag.DerefSite

	// Redefined lists the already-loaded methods this wave recompiles
	// (JIT/IDE churn). Their full current body is re-emitted in Edges —
	// so the rebuild path needs no removal (duplicates are suppressed),
	// while the delta path runs the real drop+re-add redefinition — plus
	// the churn addition (a fresh allocation into an existing local).
	Redefined []pag.MethodID
}

// EvolveProgram is a partitioned load order: shared symbol tables, the
// waves, and the pre-built frozen base (wave 0).
type EvolveProgram struct {
	Name    string
	Classes []pag.Class
	Fields  []string
	Waves   []EvolveWave // Waves[0] is the base load

	// Base is the frozen wave-0 program (identical to BuildPrefix(0)).
	Base *pag.Program

	// cum[k] records the cumulative (methods, nodes, callSites) counts
	// after wave k, for WaveLog's position check.
	cum [][3]int
}

// NumWaves returns the wave count (>= 2).
func (e *EvolveProgram) NumWaves() int { return len(e.Waves) }

// GenerateEvolve builds profile p's program (already scaled) and
// partitions it into a waves-instalment load order. Determinism matches
// Generate: the same (profile, seed, waves) always yields the same replay.
func GenerateEvolve(p Profile, seed int64, waves int) (*EvolveProgram, error) {
	return PartitionEvolve(Generate(p, seed), p.Name+"-evolve", waves)
}

// PartitionEvolve splits a frozen program into a load-order replay of the
// given wave count. Methods are bucketed by
// creation order into contiguous waves; a node arrives with its method
// (globals arrive in the base), an edge as soon as both endpoints exist,
// a call site with its caller, a query site with its variable.
func PartitionEvolve(prog *pag.Program, name string, waves int) (*EvolveProgram, error) {
	g := prog.G
	if !g.Frozen() {
		return nil, fmt.Errorf("benchgen: PartitionEvolve: %w", pag.ErrNotFrozen)
	}
	numMethods := g.NumMethods()
	if numMethods == 0 {
		return nil, fmt.Errorf("benchgen: cannot partition a program with no methods")
	}
	if waves < 2 {
		waves = 2
	}
	if waves > numMethods {
		waves = numMethods
	}

	// Wave assignment: the base wave keeps the startup bulk (a JVM loads
	// most of the reachable code before the rest trickles in); the trickle
	// is drawn from the LAST-created methods of modest size, walked
	// backwards so the latest code arrives in the latest wave, each wave
	// taking an even slice of the leftover edge mass. Giant methods (the
	// generator's deficit filler, real programs' static initialisers) stay
	// in the base: a load order never delivers half the program as one
	// method, and re-freezing around such a monolith is exactly what the
	// overlay is not for.
	mass := make([]int, numMethods)
	totalMass := 0
	for n := 0; n < g.NumNodes(); n++ {
		if m := g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
			w := len(g.Out(pag.NodeID(n))) + 1 // +1 so edge-less methods carry weight
			mass[m] += w
			totalMass += w
		}
	}
	// A "giant" holds more than an eighth of the program: only true
	// monoliths (the deficit filler, a static initialiser) qualify —
	// ordinary application methods must stay trickle-eligible or the
	// trickle starves.
	giantCap := totalMass / 8
	var tail []int // trickle methods, latest-created first
	tailMass := 0
	budget := (1 - evolveBaseShare) * float64(totalMass)
	for m := numMethods - 1; m >= 0 && numMethods-len(tail) > 1; m-- {
		if mass[m] > giantCap {
			continue
		}
		if len(tail) >= waves-1 && float64(tailMass+mass[m]) > budget {
			break
		}
		tail = append(tail, m)
		tailMass += mass[m]
	}
	if len(tail) < waves-1 {
		// Degenerate graphs (nearly every method a giant): one
		// last-created method per later wave, giants included.
		tail = tail[:0]
		for m := numMethods - 1; m >= 1 && len(tail) < waves-1; m-- {
			tail = append(tail, m)
		}
	}
	// tail[0] is the latest-created and arrives in the last wave; walking
	// down the tail fills earlier waves, switching when a wave holds its
	// mass share — or when the remaining methods are exactly enough to
	// give every remaining wave one (no later wave is ever empty).
	methodWave := make([]int, numMethods) // default: wave 0
	w, groupMass, remaining := waves-1, 0, len(tail)
	for _, m := range tail {
		methodWave[m] = w
		groupMass += mass[m]
		remaining--
		if w > 1 && (float64(groupMass) >= float64(tailMass)/float64(waves-1) || remaining == w-1) {
			w, groupMass = w-1, 0
		}
	}
	nodeWave := make([]int, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		if m := g.Node(pag.NodeID(n)).Method; m != pag.NoMethod {
			nodeWave[n] = methodWave[m]
		}
	}
	csWave := make([]int, g.NumCallSites())
	for cs := 0; cs < g.NumCallSites(); cs++ {
		csWave[cs] = methodWave[g.CallSiteInfo(pag.CallSiteID(cs)).Caller]
	}

	// Methods are renumbered wave-major like everything else (the trickle
	// selection is not contiguous in creation order).
	methodMap := make([]pag.MethodID, numMethods)
	nextM := pag.MethodID(0)
	for w := 0; w < waves; w++ {
		for m := 0; m < numMethods; m++ {
			if methodWave[m] == w {
				methodMap[m] = nextM
				nextM++
			}
		}
	}

	// Churn: each later wave recompiles a few methods loaded in the wave
	// before it (deterministically: the first evolveChurnPerWave with a
	// local variable to chain the fresh allocation into).
	firstLocal := make([]pag.NodeID, numMethods)
	for m := range firstLocal {
		firstLocal[m] = pag.NoNode
	}
	for n := 0; n < g.NumNodes(); n++ {
		nd := g.Node(pag.NodeID(n))
		if nd.Kind == pag.Local && nd.Method != pag.NoMethod && firstLocal[nd.Method] == pag.NoNode {
			firstLocal[nd.Method] = pag.NodeID(n)
		}
	}
	// Candidates keep modest bodies: the redefinition re-emits every owned
	// edge, so churning a giant would turn a recompile into an avalanche.
	churnCap := max(100, totalMass/200)
	churn := make([][]pag.MethodID, waves) // original method IDs
	churnedSet := make(map[pag.MethodID]bool)
	for k := 1; k < waves; k++ {
		for m := 0; m < numMethods && len(churn[k]) < evolveChurnPerWave; m++ {
			if methodWave[m] < k && firstLocal[m] != pag.NoNode &&
				mass[m] <= churnCap && !churnedSet[pag.MethodID(m)] {
				churn[k] = append(churn[k], pag.MethodID(m))
				churnedSet[pag.MethodID(m)] = true
			}
		}
	}

	// Renumber nodes and call sites wave-major (original order within a
	// wave), so every consumer allocates the same IDs. Each wave's churn
	// objects take the IDs right after its regular nodes.
	nodeMap := make([]pag.NodeID, g.NumNodes())
	churnObj := make([][]pag.NodeID, waves)
	next := pag.NodeID(0)
	for w := 0; w < waves; w++ {
		for n := 0; n < g.NumNodes(); n++ {
			if nodeWave[n] == w {
				nodeMap[n] = next
				next++
			}
		}
		for range churn[w] {
			churnObj[w] = append(churnObj[w], next)
			next++
		}
	}
	csMap := make([]pag.CallSiteID, g.NumCallSites())
	nextCS := pag.CallSiteID(0)
	for w := 0; w < waves; w++ {
		for cs := 0; cs < g.NumCallSites(); cs++ {
			if csWave[cs] == w {
				csMap[cs] = nextCS
				nextCS++
			}
		}
	}

	e := &EvolveProgram{Name: name, Waves: make([]EvolveWave, waves)}
	for c := 0; c < g.NumClasses(); c++ {
		e.Classes = append(e.Classes, g.ClassInfo(pag.ClassID(c)))
	}
	for f := 0; f < g.NumFields(); f++ {
		e.Fields = append(e.Fields, g.FieldName(pag.FieldID(f)))
	}

	mapMethod := func(m pag.MethodID) pag.MethodID {
		if m == pag.NoMethod {
			return m
		}
		return methodMap[m]
	}
	for w := 0; w < waves; w++ {
		for m := 0; m < numMethods; m++ {
			if methodWave[m] == w {
				e.Waves[w].Methods = append(e.Waves[w].Methods, g.MethodInfo(pag.MethodID(m)))
			}
		}
		for cs := 0; cs < g.NumCallSites(); cs++ {
			if csWave[cs] != w {
				continue
			}
			info := g.CallSiteInfo(pag.CallSiteID(cs))
			// Targets may name methods of later waves (a call into code
			// not yet loaded) — harmless metadata until the callee's edges
			// arrive.
			cp := pag.CallSite{Caller: mapMethod(info.Caller), Name: info.Name}
			for _, t := range info.Targets {
				cp.Targets = append(cp.Targets, mapMethod(t))
			}
			e.Waves[w].CallSites = append(e.Waves[w].CallSites, cp)
		}
		for n := 0; n < g.NumNodes(); n++ {
			if nodeWave[n] != w {
				continue
			}
			nd := g.Node(pag.NodeID(n))
			nd.Method = mapMethod(nd.Method)
			e.Waves[w].Nodes = append(e.Waves[w].Nodes, nd)
		}
	}
	// An edge arrives when its later endpoint does. Edges owned by a
	// churned method are also recorded per owner, so the recompiled body
	// can be re-emitted by the wave that redefines it.
	type ownedEdge struct {
		wave int
		e    pag.Edge
	}
	ownedBy := make(map[pag.MethodID][]ownedEdge)
	for n := 0; n < g.NumNodes(); n++ {
		for _, ed := range g.Out(pag.NodeID(n)) {
			w := max(nodeWave[ed.Src], nodeWave[ed.Dst])
			me := pag.Edge{Src: nodeMap[ed.Src], Dst: nodeMap[ed.Dst], Kind: ed.Kind, Label: ed.Label}
			if ed.Kind == pag.Entry || ed.Kind == pag.Exit {
				me.Label = int32(csMap[ed.Site()])
			}
			e.Waves[w].Edges = append(e.Waves[w].Edges, me)
			if len(churnedSet) > 0 {
				if owner := edgeOwner(g, ed); churnedSet[owner] {
					ownedBy[owner] = append(ownedBy[owner], ownedEdge{wave: w, e: me})
				}
			}
		}
	}
	for _, d := range prog.Derefs {
		w := nodeWave[d.Var]
		e.Waves[w].Derefs = append(e.Waves[w].Derefs, pag.DerefSite{Var: nodeMap[d.Var], Name: d.Name})
	}

	// Materialise the churn: wave k redefines its chosen methods,
	// re-emitting every owned edge present by wave k (the delta path's
	// drop+re-add cancels these; the rebuild path deduplicates them) and
	// adding one fresh allocation into the method's first local.
	for k := 1; k < waves; k++ {
		wv := &e.Waves[k]
		for i, m := range churn[k] {
			wv.Redefined = append(wv.Redefined, methodMap[m])
			for _, oe := range ownedBy[m] {
				if oe.wave <= k {
					wv.Edges = append(wv.Edges, oe.e)
				}
			}
			lv := firstLocal[m]
			wv.Nodes = append(wv.Nodes, pag.Node{
				Kind: pag.Object, Method: methodMap[m], Class: g.Node(lv).Class,
				Name: fmt.Sprintf("churn%d_%d", k, i),
			})
			wv.Edges = append(wv.Edges, pag.Edge{
				Src: churnObj[k][i], Dst: nodeMap[lv], Kind: pag.New, Label: pag.NoLabel,
			})
		}
	}

	e.cum = make([][3]int, waves)
	mc, nc, cc := 0, 0, 0
	for w := 0; w < waves; w++ {
		mc += len(e.Waves[w].Methods)
		nc += len(e.Waves[w].Nodes)
		cc += len(e.Waves[w].CallSites)
		e.cum[w] = [3]int{mc, nc, cc}
	}

	baseProg, err := e.BuildPrefix(0)
	if err != nil {
		return nil, fmt.Errorf("benchgen: evolve base: %w", err)
	}
	e.Base = baseProg
	return e, nil
}

// BuildPrefix constructs the full program as of wave k from scratch:
// validated, frozen, condensed — the rebuild-from-scratch path the delta
// overlay is measured against, and the oracle the equivalence sweep
// compares evolved engines to. IDs match the replay exactly.
func (e *EvolveProgram) BuildPrefix(k int) (*pag.Program, error) {
	prog, err := e.BuildPrefixMutable(k)
	if err != nil {
		return nil, err
	}
	if err := prog.G.Validate(); err != nil {
		return nil, err
	}
	prog.G.Freeze()
	return prog, nil
}

// BuildPrefixMutable is BuildPrefix without the validate+freeze step: the
// equivalence tests use it to graft extra edits onto a prefix before
// freezing, modelling epochs that change existing methods.
func (e *EvolveProgram) BuildPrefixMutable(k int) (*pag.Program, error) {
	g := pag.NewGraph()
	for _, c := range e.Classes {
		g.AddClass(c.Name, c.Parent)
	}
	for _, f := range e.Fields {
		g.AddField(f)
	}
	var derefs []pag.DerefSite
	for w := 0; w <= k; w++ {
		wv := &e.Waves[w]
		for _, m := range wv.Methods {
			g.AddMethod(m.Name, m.Class)
		}
		for _, cs := range wv.CallSites {
			id := g.AddCallSite(cs.Caller, cs.Name)
			for _, t := range cs.Targets {
				g.AddCallTarget(id, t)
			}
		}
		for _, nd := range wv.Nodes {
			g.AddNode(nd.Kind, nd.Method, nd.Class, nd.Name)
		}
		for _, ed := range wv.Edges {
			g.AddEdge(ed)
		}
		derefs = append(derefs, wv.Derefs...)
	}
	g.ResolveDerived()
	prog := pag.NewProgram(e.Name, g)
	prog.Derefs = derefs
	return prog, nil
}

// WaveLog fills log with wave k's instalment (k >= 1). log must be
// positioned exactly at the end of wave k-1 (waves apply in order, one
// epoch each); a mispositioned log is rejected so IDs can never skew.
func (e *EvolveProgram) WaveLog(log *delta.Log, k int) error {
	if k < 1 || k >= len(e.Waves) {
		return fmt.Errorf("benchgen: wave %d out of range [1,%d)", k, len(e.Waves))
	}
	m, n, c := log.BaseCounts()
	if want := e.cum[k-1]; m != want[0] || n != want[1] || c != want[2] {
		return fmt.Errorf("benchgen: log positioned at %d/%d/%d, wave %d needs %d/%d/%d (apply waves in order)",
			m, n, c, k, want[0], want[1], want[2])
	}
	wv := &e.Waves[k]
	for _, m := range wv.Redefined {
		log.RedefineMethod(m)
	}
	for _, meth := range wv.Methods {
		log.AddMethod(meth.Name, meth.Class)
	}
	for _, cs := range wv.CallSites {
		log.AddCallSite(cs)
	}
	for _, nd := range wv.Nodes {
		log.AddNode(nd.Kind, nd.Method, nd.Class, nd.Name)
	}
	for _, ed := range wv.Edges {
		log.AddEdge(ed)
	}
	return nil
}

// edgeOwner attributes an edge to the method whose body contains the
// statement (delta's ownership rule, on original IDs): local edges to
// their endpoint method, entry/exit to the caller side, assignglobal to
// the non-global side.
func edgeOwner(g *pag.Graph, e pag.Edge) pag.MethodID {
	switch e.Kind {
	case pag.Entry:
		return g.Node(e.Src).Method
	case pag.Exit:
		return g.Node(e.Dst).Method
	case pag.AssignGlobal:
		if m := g.Node(e.Src).Method; m != pag.NoMethod {
			return m
		}
		return g.Node(e.Dst).Method
	default:
		return g.Node(e.Src).Method
	}
}

// DerefsThrough returns the NullDeref query sites available after wave k
// (cumulative): the interleaved batch the replay runs between waves.
func (e *EvolveProgram) DerefsThrough(k int) []pag.DerefSite {
	var out []pag.DerefSite
	for w := 0; w <= k && w < len(e.Waves); w++ {
		out = append(out, e.Waves[w].Derefs...)
	}
	return out
}
