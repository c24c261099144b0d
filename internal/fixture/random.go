package fixture

import (
	"math/rand"

	"dynsum/internal/pag"
)

// RandConfig controls the shape of random programs. Zero fields get
// sensible small defaults from Defaults.
type RandConfig struct {
	Methods          int
	VarsPerMethod    int
	ObjectsPerMethod int
	Fields           int
	Globals          int
	LocalEdges       int  // extra local assign/load/store edges per method
	Calls            int  // total call sites
	GlobalAssigns    int  // total assignglobal edges
	Recursive        bool // allow call-graph cycles (stress budgets)
}

// Defaults fills zero fields with small-test defaults.
func (c RandConfig) Defaults() RandConfig {
	if c.Methods == 0 {
		c.Methods = 4
	}
	if c.VarsPerMethod == 0 {
		c.VarsPerMethod = 8
	}
	if c.ObjectsPerMethod == 0 {
		c.ObjectsPerMethod = 2
	}
	if c.Fields == 0 {
		c.Fields = 3
	}
	if c.LocalEdges == 0 {
		c.LocalEdges = 6
	}
	if c.Calls == 0 {
		c.Calls = 4
	}
	return c
}

// RandProgram generates a structured random program: a fixed method
// skeleton with random local data flow, random (acyclic by default) calls
// and random global traffic. The same seed always yields the same program,
// so failing property tests are reproducible.
//
// The generated graphs are well-formed PAGs (Validate passes) and every
// statement is realisable Java-like code, which keeps the cross-engine
// equivalence properties meaningful: the engines are compared on graphs
// drawn from the same family as real programs, not on arbitrary edge soup.
func RandProgram(seed int64, cfg RandConfig) *pag.Program {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(seed))
	b := pag.NewBuilder()
	cls := b.Class("R", pag.NoClass)

	fields := make([]pag.FieldID, cfg.Fields)
	for i := range fields {
		fields[i] = b.G.AddField("R.f" + itoa(i))
	}
	globals := make([]pag.NodeID, cfg.Globals)
	for i := range globals {
		globals[i] = b.GlobalVar("R.g"+itoa(i), cls)
	}

	type method struct {
		id   pag.MethodID
		vars []pag.NodeID
	}
	methods := make([]method, cfg.Methods)
	for i := range methods {
		m := b.Method("R.m"+itoa(i), cls)
		vars := make([]pag.NodeID, cfg.VarsPerMethod)
		for j := range vars {
			vars[j] = b.Local(m, "v"+itoa(j), cls)
		}
		methods[i] = method{id: m, vars: vars}
		for j := 0; j < cfg.ObjectsPerMethod; j++ {
			v := vars[rng.Intn(len(vars))]
			b.NewObject(v, "o"+itoa(i)+"_"+itoa(j), cls)
		}
		for j := 0; j < cfg.LocalEdges; j++ {
			src := vars[rng.Intn(len(vars))]
			dst := vars[rng.Intn(len(vars))]
			// Assign-heavy mix, like real PAGs (paper Table 3); dense
			// load/store webs degenerate into field-cyclic graphs on
			// which every engine must give up conservatively.
			switch rng.Intn(4) {
			case 0, 1:
				if src != dst {
					b.Copy(dst, src)
				}
			case 2:
				b.Load(dst, src, fields[rng.Intn(len(fields))])
			default:
				b.Store(dst, fields[rng.Intn(len(fields))], src)
			}
		}
	}

	for i := 0; i < cfg.Calls; i++ {
		ci := rng.Intn(len(methods))
		var cj int
		if cfg.Recursive {
			cj = rng.Intn(len(methods))
		} else {
			if ci == len(methods)-1 {
				continue // last method calls nobody in acyclic mode
			}
			cj = ci + 1 + rng.Intn(len(methods)-ci-1)
		}
		caller, callee := methods[ci], methods[cj]
		nargs := 1 + rng.Intn(2)
		actuals := make([]pag.NodeID, 0, nargs)
		formals := make([]pag.NodeID, 0, nargs)
		for a := 0; a < nargs; a++ {
			actuals = append(actuals, caller.vars[rng.Intn(len(caller.vars))])
			formals = append(formals, callee.vars[rng.Intn(len(callee.vars))])
		}
		ret, lhs := pag.NoNode, pag.NoNode
		if rng.Intn(2) == 0 {
			ret = callee.vars[rng.Intn(len(callee.vars))]
			lhs = caller.vars[rng.Intn(len(caller.vars))]
		}
		b.Call(caller.id, callee.id, "", actuals, formals, ret, lhs)
	}

	for i := 0; i < cfg.GlobalAssigns && len(globals) > 0; i++ {
		m := methods[rng.Intn(len(methods))]
		v := m.vars[rng.Intn(len(m.vars))]
		g := globals[rng.Intn(len(globals))]
		if rng.Intn(2) == 0 {
			b.Copy(g, v)
		} else {
			b.Copy(v, g)
		}
	}

	return frozen("rand", b)
}

// AllLocals returns every local-variable node of p, in ID order; property
// tests query each of them.
func AllLocals(p *pag.Program) []pag.NodeID {
	var out []pag.NodeID
	for i := 0; i < p.G.NumNodes(); i++ {
		if p.G.Node(pag.NodeID(i)).Kind == pag.Local {
			out = append(out, pag.NodeID(i))
		}
	}
	return out
}
