package pag

import (
	"fmt"
	"strings"
)

// Stats aggregates the per-benchmark statistics reported in paper Table 3:
// method count, node counts by kind, edge counts by kind, and locality (the
// fraction of local edges among all edges), the metric the paper uses to
// bound the scope of DYNSUM's optimisation.
type Stats struct {
	Methods    int
	Objects    int
	LocalVars  int
	GlobalVars int
	Edges      [NumEdgeKinds]int
}

// Stats computes the Table-3 statistics of g.
func (g *Graph) Stats() Stats {
	s := Stats{Methods: len(g.methods), Edges: g.edgeCount}
	for _, n := range g.nodes {
		switch n.Kind {
		case Object:
			s.Objects++
		case Local:
			s.LocalVars++
		case Global:
			s.GlobalVars++
		}
	}
	return s
}

// TotalEdges returns the total edge count.
func (s Stats) TotalEdges() int {
	n := 0
	for _, c := range s.Edges {
		n += c
	}
	return n
}

// LocalEdges returns the number of local (new/assign/load/store) edges.
func (s Stats) LocalEdges() int {
	return s.Edges[New] + s.Edges[Assign] + s.Edges[Load] + s.Edges[Store]
}

// Locality returns the percentage of local edges among all edges
// (paper Table 3, column "Locality").
func (s Stats) Locality() float64 {
	total := s.TotalEdges()
	if total == 0 {
		return 0
	}
	return 100 * float64(s.LocalEdges()) / float64(total)
}

// Layout describes the resident adjacency of a frozen Graph: two flat edge
// arrays plus four offset arrays (see csr.go).
type Layout struct {
	// EdgeSlots counts resident edge records (each edge is stored once per
	// direction, so this is 2×NumEdges).
	EdgeSlots int
	// AdjacencyBytes approximates the resident bytes of the adjacency:
	// edge storage plus the CSR offset arrays.
	AdjacencyBytes int
}

// edgeBytes is the size of one Edge: Src+Dst+Label int32 + Kind uint8,
// padded.
const edgeBytes = 12

// Layout reports the adjacency's size and approximate memory footprint.
func (g *Graph) Layout() Layout {
	slots := 2 * g.NumEdges()
	// outStart/inStart (n+1 each) + outSplit/inSplit (n each), int32.
	n := len(g.nodes)
	return Layout{EdgeSlots: slots, AdjacencyBytes: slots*edgeBytes + (2*(n+1)+2*n)*4}
}

func (l Layout) String() string {
	return fmt.Sprintf("layout=csr edgeslots=%d adjbytes=%d", l.EdgeSlots, l.AdjacencyBytes)
}

// String renders the statistics in a compact one-line form.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "methods=%d O=%d V=%d G=%d", s.Methods, s.Objects, s.LocalVars, s.GlobalVars)
	for k := 0; k < NumEdgeKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", EdgeKind(k), s.Edges[k])
	}
	fmt.Fprintf(&b, " locality=%.1f%%", s.Locality())
	return b.String()
}
