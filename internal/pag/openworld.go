package pag

import "fmt"

// Open-world support: a method whose body is missing (deleted library code,
// a native method, a class not yet loaded) is *marked bodyless*. Its local
// edges are absent by definition — only its boundary nodes (formals,
// return, call-site linkage) and their global edges remain — and the mark
// records what the engines need to reason about it soundly:
//
//   - the formal-parameter nodes and return node, in source order, so that
//     declarative specs ("ret <- arg0", internal/openworld) can name them;
//   - a per-method blob object, the conservative stand-in for every object
//     the unknown body could allocate or reach (the PIP-style "blended"
//     abstraction); and
//   - a per-method blob variable, the lowering temporary spec lines route
//     multi-hop flows through.
//
// Both blob nodes are ordinary graph nodes of the distinguished "Blob"
// class, appended at mark time — so points-to answers can contain the blob
// object like any other allocation site, and node IDs of the original
// program are untouched (the open-world soundness checker relies on the
// stripped graph and the full-body oracle sharing IDs).

// BodylessInfo records the boundary interface of one bodyless method.
type BodylessInfo struct {
	// Formals holds the reference formal-parameter nodes in source order
	// (arg0 is the receiver for instance methods). Non-reference parameters
	// occupy their position with NoNode so spec argument indices stay
	// aligned with the source signature.
	Formals []NodeID
	// Ret is the return-value node, or NoNode for void/non-reference
	// returns.
	Ret NodeID
	// BlobObj is the method's blob object: the abstract object standing in
	// for everything the missing body could allocate or return.
	BlobObj NodeID
	// BlobVar is the method's blob variable, the temporary that spec
	// lowering routes field hops and blob allocations through.
	BlobVar NodeID
}

// BlobClassName is the class of blob nodes created by MarkBodyless.
const BlobClassName = "Blob"

// blobClass returns the distinguished Blob class, interning it on first use.
func (g *Graph) blobClass() ClassID {
	if g.blobClassID == NoClass {
		g.blobClassID = g.AddClass(BlobClassName, NoClass)
	}
	return g.blobClassID
}

// MarkBodyless declares method m bodyless and returns its recorded
// interface. formals and ret follow the BodylessInfo conventions; the slice
// is retained. The graph must not be frozen yet (blob nodes are created
// here), m must not carry local edges on any of the given nodes — a
// bodyless method has no body — and re-marking a method is an error.
func (g *Graph) MarkBodyless(m MethodID, formals []NodeID, ret NodeID) (BodylessInfo, error) {
	if g.frozen != nil {
		return BodylessInfo{}, fmt.Errorf("pag: MarkBodyless(%d) on a frozen graph", m)
	}
	if m < 0 || int(m) >= len(g.methods) {
		return BodylessInfo{}, fmt.Errorf("pag: MarkBodyless: method %d out of range", m)
	}
	if _, dup := g.bodyless[m]; dup {
		return BodylessInfo{}, fmt.Errorf("pag: method %s marked bodyless twice", g.methods[m].Name)
	}
	check := func(n NodeID, what string) error {
		if n == NoNode {
			return nil
		}
		if n < 0 || int(n) >= len(g.nodes) {
			return fmt.Errorf("pag: MarkBodyless(%s): %s node %d out of range", g.methods[m].Name, what, n)
		}
		if g.HasLocalEdges(n) {
			return fmt.Errorf("pag: MarkBodyless(%s): %s node %s has local edges — the method has a body",
				g.methods[m].Name, what, g.NodeString(n))
		}
		return nil
	}
	for _, f := range formals {
		if err := check(f, "formal"); err != nil {
			return BodylessInfo{}, err
		}
	}
	if err := check(ret, "return"); err != nil {
		return BodylessInfo{}, err
	}
	cls := g.blobClass()
	info := BodylessInfo{
		Formals: formals,
		Ret:     ret,
		BlobObj: g.AddNode(Object, m, cls, "#blob"),
		BlobVar: g.AddNode(Local, m, cls, "#blobvar"),
	}
	if g.bodyless == nil {
		g.bodyless = make(map[MethodID]BodylessInfo)
	}
	g.bodyless[m] = info
	return info, nil
}

// Bodyless reports whether m was marked bodyless and returns its recorded
// interface. The mark is structural metadata: a spec that later gives m
// synthetic local edges does not clear it (the engine's open-world model
// tracks liveness of the mark against the current adjacency itself).
func (g *Graph) Bodyless(m MethodID) (BodylessInfo, bool) {
	info, ok := g.bodyless[m]
	return info, ok
}

// NumBodyless returns the number of methods marked bodyless.
func (g *Graph) NumBodyless() int { return len(g.bodyless) }

// BodylessMethods returns the bodyless method IDs in increasing order.
func (g *Graph) BodylessMethods() []MethodID {
	if len(g.bodyless) == 0 {
		return nil
	}
	out := make([]MethodID, 0, len(g.bodyless))
	for m := range g.bodyless {
		out = append(out, m)
	}
	for i := 1; i < len(out); i++ { // insertion sort: the set is small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// AdoptBodyless copies the bodyless-method table from src onto g, for
// rebuilds that reproduce src's method and node IDs exactly (the delta
// overlay's Compact, snapshot round-trips). Records whose methods or nodes
// fall outside g are rejected.
func (g *Graph) AdoptBodyless(src *Graph) error {
	if len(src.bodyless) == 0 {
		return nil
	}
	for m, info := range src.bodyless {
		if int(m) >= len(g.methods) {
			return fmt.Errorf("pag: AdoptBodyless: method %d out of range", m)
		}
		for _, nd := range append([]NodeID{info.Ret, info.BlobObj, info.BlobVar}, info.Formals...) {
			if nd != NoNode && int(nd) >= len(g.nodes) {
				return fmt.Errorf("pag: AdoptBodyless: node %d of method %d out of range", nd, m)
			}
		}
	}
	if g.bodyless == nil {
		g.bodyless = make(map[MethodID]BodylessInfo, len(src.bodyless))
	}
	for m, info := range src.bodyless {
		g.bodyless[m] = info
	}
	g.ResolveDerived() // pick up the Blob class on copies built table-first
	return nil
}

// IsBlobObject reports whether n is the blob object of a bodyless method.
func (g *Graph) IsBlobObject(n NodeID) bool {
	nd := g.nodes[n]
	return nd.Kind == Object && g.blobClassID != NoClass && nd.Class == g.blobClassID
}

// FieldByName returns the FieldID of an already-interned field name without
// interning it — the lookup spec resolution needs (a spec must not mint
// fields the program never mentions silently; the resolver reports them).
func (g *Graph) FieldByName(name string) (FieldID, bool) {
	id, ok := g.fieldIndex[name]
	return id, ok
}
