package openworld

import (
	"fmt"
	"sort"

	"dynsum/internal/pag"
)

// StripBodies builds the open-world counterpart of a program: a copy of src
// in which the listed methods have lost their bodies. It is the workload
// half of the subsystem's proof obligation — strip a full program whose
// exact answers are known, re-analyse under specs or blended summaries, and
// every answer must be a superset of the oracle's.
//
// The rebuild is ID-stable by construction:
//
//   - every class, field, method, call site and node of src is copied in ID
//     order — deleted methods keep their nodes, only their local edges
//     (new/assign/load/store) vanish;
//   - ALL global edges survive, including the deleted methods' call-site
//     linkage (entry/exit edges of calls *inside* the deleted bodies and
//     their assignglobal edges): linkage is interface metadata — who calls
//     whom — not body content, and keeping it preserves node IDs and
//     call-site IDs exactly;
//   - each deleted method is marked bodyless (pag.MarkBodyless), its blob
//     nodes appended after all original nodes.
//
// Node IDs below src.NumNodes() therefore mean the same thing in both
// graphs, which is what lets the soundness checker compare answers
// object-for-object (internal/enginetest's open-world sweep).
//
// Formals and the return node of a deleted method are recovered from its
// call-site linkage: nodes of the method receiving an entry edge are its
// formals (in node-ID order, which is declaration order for every frontend
// in this repo), and the lowest-ID node sending an exit edge is its return.
// A never-called deleted method gets an empty interface — still sound, the
// blended model covers it — but specs naming its parameters will not
// resolve.
//
// src must be frozen; the result is not (add spec edges with AddEdge if
// desired, then Freeze). Methods already bodyless in src are adopted
// as-is; re-listing them in deleted is a no-op.
func StripBodies(src *pag.Graph, deleted []pag.MethodID) (*pag.Graph, error) {
	if !src.Frozen() {
		return nil, fmt.Errorf("openworld: StripBodies: %w", pag.ErrNotFrozen)
	}
	del := make(map[pag.MethodID]bool, len(deleted))
	for _, m := range deleted {
		if m < 0 || int(m) >= src.NumMethods() {
			return nil, fmt.Errorf("openworld: StripBodies: method %d out of range", m)
		}
		del[m] = true
	}

	ng := pag.CopyTables(src)
	for _, e := range src.Edges() {
		// A local edge belongs to the method of its source (for New edges
		// the object's allocating method, which validation pins to the
		// destination's method as well).
		if e.Kind.IsLocal() && del[src.Node(e.Src).Method] {
			continue
		}
		ng.AddEdge(e)
	}

	// Methods src already modelled as bodyless stay bodyless, with their
	// original blob nodes (copied above, same IDs).
	if err := ng.AdoptBodyless(src); err != nil {
		return nil, err
	}

	for _, m := range sortedMethods(del) {
		if _, already := src.Bodyless(m); already {
			continue
		}
		formals, ret := boundaryOf(src, m)
		if _, err := ng.MarkBodyless(m, formals, ret); err != nil {
			return nil, err
		}
	}

	ng.ResolveDerived()
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("openworld: StripBodies: %w", err)
	}
	return ng, nil
}

// boundaryOf recovers m's formal-parameter nodes (entry-edge targets, in
// node-ID order) and return node (lowest-ID exit-edge source) from the
// call-site linkage in g.
func boundaryOf(g *pag.Graph, m pag.MethodID) (formals []pag.NodeID, ret pag.NodeID) {
	ret = pag.NoNode
	for n := 0; n < g.NumNodes(); n++ {
		id := pag.NodeID(n)
		if g.Node(id).Method != m {
			continue
		}
		for _, e := range g.GlobalIn(id) {
			if e.Kind == pag.Entry {
				formals = append(formals, id)
				break
			}
		}
		if ret == pag.NoNode {
			for _, e := range g.GlobalOut(id) {
				if e.Kind == pag.Exit {
					ret = id
					break
				}
			}
		}
	}
	return formals, ret
}

func sortedMethods(set map[pag.MethodID]bool) []pag.MethodID {
	out := make([]pag.MethodID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
