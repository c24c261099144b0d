package pag

import "fmt"

// This file defines Program: a Graph plus the client-facing site metadata
// that the paper's three clients (§5.2) consume. The metadata is produced
// by the MiniJava frontend or the synthetic benchmark generator and
// serialised together with the graph.

// CastSite is one downcast "(Target) Var" checked by the SafeCast client.
type CastSite struct {
	Var    NodeID
	Target ClassID
	Name   string // diagnostic position label
}

// DerefSite is one pointer dereference (field access or receiver use)
// checked by the NullDeref client.
type DerefSite struct {
	Var  NodeID
	Name string
}

// FactorySite is one factory method checked by the FactoryM client: the
// method together with its return-value variable.
type FactorySite struct {
	Method MethodID
	Ret    NodeID
	Name   string
}

// Program bundles a PAG with client query-site metadata.
type Program struct {
	G *Graph

	Name      string
	Casts     []CastSite
	Derefs    []DerefSite
	Factories []FactorySite

	callSitesIn map[MethodID][]CallSiteID // lazy index for CalleeClosure
}

// NewProgram wraps g in an empty Program.
func NewProgram(name string, g *Graph) *Program {
	return &Program{Name: name, G: g}
}

// CheckSites range-checks the client sites against the graph's tables:
// a cast names a node and a class, a deref a node, and a factory a method
// and a node. Decode applies the same rules as it reads, and persist when
// it reopens a saved program.
func (p *Program) CheckSites() error {
	g := p.G
	node := func(v NodeID) bool { return v >= 0 && int(v) < len(g.nodes) }
	for i, c := range p.Casts {
		if !node(c.Var) || c.Target < 0 || int(c.Target) >= len(g.classes) {
			return fmt.Errorf("cast site %d references out-of-range IDs", i)
		}
	}
	for i, d := range p.Derefs {
		if !node(d.Var) {
			return fmt.Errorf("deref site %d references node %d out of range", i, d.Var)
		}
	}
	for i, f := range p.Factories {
		if f.Method < 0 || int(f.Method) >= len(g.methods) || !node(f.Ret) {
			return fmt.Errorf("factory site %d references out-of-range IDs", i)
		}
	}
	return nil
}

// invalidateIndexes drops lazily built indexes; call after mutating the
// call-site table.
func (p *Program) invalidateIndexes() { p.callSitesIn = nil }

// CallSitesIn returns the call sites contained in method m.
func (p *Program) CallSitesIn(m MethodID) []CallSiteID {
	if p.callSitesIn == nil {
		p.callSitesIn = make(map[MethodID][]CallSiteID)
		for cs := 0; cs < p.G.NumCallSites(); cs++ {
			info := p.G.CallSiteInfo(CallSiteID(cs))
			p.callSitesIn[info.Caller] = append(p.callSitesIn[info.Caller], CallSiteID(cs))
		}
	}
	return p.callSitesIn[m]
}

// CalleeClosure returns m plus every method transitively callable from m,
// following the resolved call-site targets.
func (p *Program) CalleeClosure(m MethodID) map[MethodID]bool {
	closure := map[MethodID]bool{m: true}
	work := []MethodID{m}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cs := range p.CallSitesIn(cur) {
			for _, t := range p.G.CallSiteInfo(cs).Targets {
				if !closure[t] {
					closure[t] = true
					work = append(work, t)
				}
			}
		}
	}
	return closure
}
