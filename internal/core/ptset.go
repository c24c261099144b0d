package core

import (
	"fmt"
	"sort"
	"strings"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// PointsToSet is a set of context-sensitive abstract objects. Context IDs
// are only meaningful relative to the context-stack table of the engine
// that produced the set; engines constructed with a shared table (see
// NewDynSum and friends) produce directly comparable sets.
type PointsToSet struct {
	m map[HeapCtx]struct{}
}

// NewPointsToSet returns an empty set.
func NewPointsToSet() *PointsToSet {
	return &PointsToSet{m: make(map[HeapCtx]struct{})}
}

// Reset empties the set in place, retaining the map's buckets so refilling
// it does not allocate. The reuse device behind DynSum.Query's
// zero-allocation warm path.
func (s *PointsToSet) Reset() { clear(s.m) }

// Add inserts (obj, ctx) and reports whether it was new.
func (s *PointsToSet) Add(obj pag.NodeID, ctx intstack.ID) bool {
	hc := HeapCtx{Obj: obj, Ctx: ctx}
	if _, ok := s.m[hc]; ok {
		return false
	}
	s.m[hc] = struct{}{}
	return true
}

// AddAll inserts every element of other and reports whether any was new.
func (s *PointsToSet) AddAll(other *PointsToSet) bool {
	changed := false
	for hc := range other.m {
		if _, ok := s.m[hc]; !ok {
			s.m[hc] = struct{}{}
			changed = true
		}
	}
	return changed
}

// Has reports membership of the exact (obj, ctx) pair.
func (s *PointsToSet) Has(obj pag.NodeID, ctx intstack.ID) bool {
	_, ok := s.m[HeapCtx{Obj: obj, Ctx: ctx}]
	return ok
}

// HasObject reports whether obj appears under any context.
func (s *PointsToSet) HasObject(obj pag.NodeID) bool {
	for hc := range s.m {
		if hc.Obj == obj {
			return true
		}
	}
	return false
}

// Len returns the number of (obj, ctx) pairs.
func (s *PointsToSet) Len() int { return len(s.m) }

// Objects returns the distinct objects, sorted, ignoring contexts (the
// context-insensitive projection used by the clients).
func (s *PointsToSet) Objects() []pag.NodeID {
	seen := make(map[pag.NodeID]bool, len(s.m))
	var out []pag.NodeID
	for hc := range s.m {
		if !seen[hc.Obj] {
			seen[hc.Obj] = true
			out = append(out, hc.Obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pairs returns all (obj, ctx) pairs sorted by object then context.
func (s *PointsToSet) Pairs() []HeapCtx {
	out := make([]HeapCtx, 0, len(s.m))
	for hc := range s.m {
		out = append(out, hc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Ctx < out[j].Ctx
	})
	return out
}

// Equal reports element-wise equality of the (obj, ctx) pairs. Both sets
// must come from engines sharing one context table.
func (s *PointsToSet) Equal(other *PointsToSet) bool {
	if len(s.m) != len(other.m) {
		return false
	}
	for hc := range s.m {
		if _, ok := other.m[hc]; !ok {
			return false
		}
	}
	return true
}

// SameObjects reports equality of the context-insensitive projections.
func (s *PointsToSet) SameObjects(other *PointsToSet) bool {
	a, b := s.Objects(), other.Objects()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ObjectsSubsetOf reports whether every object of s appears in other,
// ignoring contexts. Soundness tests compare demand-driven results against
// the Andersen oracle with this.
func (s *PointsToSet) ObjectsSubsetOf(other *PointsToSet) bool {
	theirs := make(map[pag.NodeID]bool)
	for hc := range other.m {
		theirs[hc.Obj] = true
	}
	for hc := range s.m {
		if !theirs[hc.Obj] {
			return false
		}
	}
	return true
}

// String renders the object projection using raw node IDs.
func (s *PointsToSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, o := range s.Objects() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "o%d", o)
	}
	b.WriteByte('}')
	return b.String()
}

// FormatObjects renders the object projection with graph names, for
// diagnostics and the experiment harness.
func (s *PointsToSet) FormatObjects(g *pag.Graph) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, o := range s.Objects() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(g.NodeString(o))
	}
	b.WriteByte('}')
	return b.String()
}
