package pag

import (
	"errors"
	"fmt"
)

// This file supports the persistence layer (internal/persist): a frozen
// Graph can be flattened into a FrozenImage — plain exported slices, no
// pointers into the graph's private structure — and rebuilt from one
// without re-running Freeze. The rebuild installs the CSR arrays and the
// condensation directly, so a warm start skips edge insertion, CSR
// compaction and the Tarjan condensation pass entirely; only the cheap
// derived indexes (edge counts, the by-field Load/Store lists in the
// order FieldOrder records, the field-name intern map) are rebuilt.

// FrozenImage is the flat, encoding-friendly view of a frozen Graph: the
// symbol tables, the node table, both CSR directions with their partition
// boundaries, the per-node adjacency flags, and the condensation overlay
// (omitted entirely when trivial — the rebuild re-aliases the base
// layout, exactly as Freeze does on a cycle-free graph).
type FrozenImage struct {
	Nodes     []Node
	Fields    []string
	Methods   []Method
	Classes   []Class
	CallSites []CallSite

	OutEdges []Edge
	OutStart []int32
	OutSplit []int32
	InEdges  []Edge
	InStart  []int32
	InSplit  []int32
	Flags    []uint8

	// Bodyless carries the open-world bodyless-method table (openworld.go),
	// ordered by method ID; empty for closed-world graphs.
	Bodyless []BodylessImage

	// CondTrivial records that the graph had no assign cycle: the
	// condensation aliases the base arrays and the Cond* fields stay nil.
	CondTrivial  bool
	CondRep      []NodeID
	CondOutEdges []Edge
	CondOutStart []int32
	CondOutSplit []int32
	CondInEdges  []Edge
	CondInStart  []int32
	CondInSplit  []int32
	CondFlags    []uint8
	CondStats    CondenseStats
}

// BodylessImage is the flat form of one bodyless-method record: the method
// and its BodylessInfo, encoding-friendly.
type BodylessImage struct {
	Method  MethodID
	Formals []NodeID
	Ret     NodeID
	BlobObj NodeID
	BlobVar NodeID
}

// ErrNotFrozen reports a graph still under construction where a frozen
// one is needed: Image returns it (snapshots capture the CSR layout), and
// the engine constructors panic with it, since engines analyse frozen
// graphs only. Freeze first.
var ErrNotFrozen = errors.New("pag: graph is not frozen")

// Image flattens a frozen graph. The returned image aliases the graph's
// internal arrays — it is a read-only view for immediate encoding, not an
// independent copy.
func (g *Graph) Image() (*FrozenImage, error) {
	if g.frozen == nil {
		return nil, ErrNotFrozen
	}
	f := g.frozen
	img := &FrozenImage{
		Nodes:     g.nodes,
		Fields:    g.fields,
		Methods:   g.methods,
		Classes:   g.classes,
		CallSites: g.callSites,
		OutEdges:  f.outEdges,
		OutStart:  f.outStart,
		OutSplit:  f.outSplit,
		InEdges:   f.inEdges,
		InStart:   f.inStart,
		InSplit:   f.inSplit,
		Flags:     flagBytes(g.flags),
		CondStats: g.cond.stats,
	}
	for _, m := range g.BodylessMethods() {
		info := g.bodyless[m]
		img.Bodyless = append(img.Bodyless, BodylessImage{
			Method: m, Formals: info.Formals, Ret: info.Ret,
			BlobObj: info.BlobObj, BlobVar: info.BlobVar,
		})
	}
	if g.cond.Trivial() {
		img.CondTrivial = true
		return img, nil
	}
	c := g.cond
	img.CondRep = c.rep
	img.CondOutEdges = c.c.outEdges
	img.CondOutStart = c.c.outStart
	img.CondOutSplit = c.c.outSplit
	img.CondInEdges = c.c.inEdges
	img.CondInStart = c.c.inStart
	img.CondInSplit = c.c.inSplit
	img.CondFlags = flagBytes(c.flags)
	return img, nil
}

// FieldOrder returns the OutEdges index (in the graph's Image) of every
// Load and Store edge, field by field, each field's loads in LoadsOf order
// and then its stores in StoresOf order. Freeze orders those lists by the
// edge list, which the CSR arrays do not record, so a snapshot carries
// this next to the image for FromImage to restore them.
func (g *Graph) FieldOrder() []int32 {
	f := g.frozen
	out := make([]int32, 0, g.edgeCount[Load]+g.edgeCount[Store])
	for fld := FieldID(0); int(fld) < len(g.fields); fld++ {
		for _, es := range [2][]Edge{g.loadsByField[fld], g.storesByField[fld]} {
			for _, e := range es {
				for j := f.outStart[e.Src]; j < f.outSplit[e.Src]; j++ {
					if f.outEdges[j] == e {
						out = append(out, j)
						break
					}
				}
			}
		}
	}
	return out
}

// FromImage rebuilds a frozen graph from an image and the graph's
// FieldOrder. Every structural invariant the CSR accessors rely on is
// re-verified first — offset monotonicity, partition boundaries inside
// their spans, endpoint ranges, and that fieldOrder names every Load and
// Store edge exactly once — so a corrupted or adversarial image yields an
// error, never an engine that indexes out of bounds later. The edge
// counts and intern maps are rebuilt by one scan of the out-edge array,
// the by-field lists in fieldOrder's order, so a restored graph lists
// them as Freeze did; the image's arrays are adopted, not copied.
func FromImage(img *FrozenImage, fieldOrder []int32) (*Graph, error) {
	n := len(img.Nodes)
	if err := checkCSRShape("csr", n, img.OutEdges, img.OutStart, img.OutSplit, img.InEdges, img.InStart, img.InSplit); err != nil {
		return nil, err
	}
	if len(img.Flags) != n {
		return nil, fmt.Errorf("pag: image has %d flag bytes for %d nodes", len(img.Flags), n)
	}
	for i, nd := range img.Nodes {
		if nd.Method != NoMethod && (nd.Method < 0 || int(nd.Method) >= len(img.Methods)) {
			return nil, fmt.Errorf("pag: image node %d has method %d out of range", i, nd.Method)
		}
		if nd.Class != NoClass && (nd.Class < 0 || int(nd.Class) >= len(img.Classes)) {
			return nil, fmt.Errorf("pag: image node %d has class %d out of range", i, nd.Class)
		}
	}
	for i, c := range img.Classes {
		if c.Parent != NoClass && (c.Parent < 0 || int(c.Parent) >= len(img.Classes)) {
			return nil, fmt.Errorf("pag: image class %d has parent %d out of range", i, c.Parent)
		}
	}
	for i, m := range img.Methods {
		if m.Class != NoClass && (m.Class < 0 || int(m.Class) >= len(img.Classes)) {
			return nil, fmt.Errorf("pag: image method %d has class %d out of range", i, m.Class)
		}
	}
	// Call-site callers and targets are NOT bounded by the method table:
	// under the dynamic-loading model a frozen base may carry dispatch
	// metadata naming methods that only arrive in later delta epochs (the
	// engine resolves them through maps, never by indexing). Only reject
	// negatives other than the NoMethod sentinel.
	for i, cs := range img.CallSites {
		if cs.Caller < NoMethod {
			return nil, fmt.Errorf("pag: image call site %d has caller %d out of range", i, cs.Caller)
		}
		for _, t := range cs.Targets {
			if t < 0 {
				return nil, fmt.Errorf("pag: image call site %d has negative target %d", i, t)
			}
		}
	}

	for i, b := range img.Bodyless {
		if b.Method < 0 || int(b.Method) >= len(img.Methods) {
			return nil, fmt.Errorf("pag: image bodyless record %d has method %d out of range", i, b.Method)
		}
		// NoNode is legal for Ret and for formal gaps (non-reference params).
		for _, nd := range append([]NodeID{b.Ret, b.BlobObj, b.BlobVar}, b.Formals...) {
			if nd != NoNode && (nd < 0 || int(nd) >= n) {
				return nil, fmt.Errorf("pag: image bodyless record %d has node %d out of range", i, nd)
			}
		}
		if b.BlobObj == NoNode || b.BlobVar == NoNode {
			return nil, fmt.Errorf("pag: image bodyless record %d is missing its blob nodes", i)
		}
	}

	g := NewGraph()
	g.nodes = img.Nodes
	g.fields = img.Fields
	g.methods = img.Methods
	g.classes = img.Classes
	g.callSites = img.CallSites
	for _, b := range img.Bodyless {
		if g.bodyless == nil {
			g.bodyless = make(map[MethodID]BodylessInfo, len(img.Bodyless))
		}
		if _, dup := g.bodyless[b.Method]; dup {
			return nil, fmt.Errorf("pag: image marks method %d bodyless twice", b.Method)
		}
		g.bodyless[b.Method] = BodylessInfo{
			Formals: b.Formals, Ret: b.Ret, BlobObj: b.BlobObj, BlobVar: b.BlobVar,
		}
	}
	g.flags = nodeFlagSlice(img.Flags)
	g.frozen = &csr{
		outEdges: img.OutEdges,
		outStart: img.OutStart,
		outSplit: img.OutSplit,
		inEdges:  img.InEdges,
		inStart:  img.InStart,
		inSplit:  img.InSplit,
	}

	identity := func(n NodeID) NodeID { return n }
	if err := checkCSRPartition("csr", n, g.frozen, identity); err != nil {
		return nil, err
	}

	// Rebuild the edge counts from the flat out-edge array (every edge
	// appears exactly once there), then the by-field lists in fieldOrder's
	// order.
	for _, e := range img.OutEdges {
		if e.Kind >= EdgeKind(NumEdgeKinds) {
			return nil, fmt.Errorf("pag: image edge %v has invalid kind", e)
		}
		g.edgeCount[e.Kind]++
	}
	if want := g.edgeCount[Load] + g.edgeCount[Store]; len(fieldOrder) != want {
		return nil, fmt.Errorf("pag: image field order lists %d edges for %d loads and stores", len(fieldOrder), want)
	}
	listed := make([]bool, len(img.OutEdges))
	for _, i := range fieldOrder {
		if i < 0 || int(i) >= len(img.OutEdges) || listed[i] {
			return nil, fmt.Errorf("pag: image field order index %d is out of range or repeated", i)
		}
		listed[i] = true
		switch e := img.OutEdges[i]; e.Kind {
		case Load:
			g.loadsByField[e.Field()] = append(g.loadsByField[e.Field()], e)
		case Store:
			g.storesByField[e.Field()] = append(g.storesByField[e.Field()], e)
		default:
			return nil, fmt.Errorf("pag: image field order index %d names %v, not a load or store", i, e)
		}
	}
	g.ResolveDerived()

	cond := &Condensation{stats: img.CondStats}
	if img.CondTrivial {
		// Reproduce Freeze's cycle-free aliasing: the condensed view IS the
		// base view.
		cond.c = g.frozen
		cond.flags = g.flags
	} else {
		if len(img.CondRep) != n {
			return nil, fmt.Errorf("pag: image condensation has %d reps for %d nodes", len(img.CondRep), n)
		}
		for i, r := range img.CondRep {
			if r < 0 || int(r) >= n {
				return nil, fmt.Errorf("pag: image rep[%d] = %d out of range", i, r)
			}
		}
		if err := checkCSRShape("condensed csr", n, img.CondOutEdges, img.CondOutStart, img.CondOutSplit,
			img.CondInEdges, img.CondInStart, img.CondInSplit); err != nil {
			return nil, err
		}
		if len(img.CondFlags) != n {
			return nil, fmt.Errorf("pag: image has %d condensed flag bytes for %d nodes", len(img.CondFlags), n)
		}
		cond.rep = img.CondRep
		cond.c = &csr{
			outEdges: img.CondOutEdges,
			outStart: img.CondOutStart,
			outSplit: img.CondOutSplit,
			inEdges:  img.CondInEdges,
			inStart:  img.CondInStart,
			inSplit:  img.CondInSplit,
		}
		cond.flags = nodeFlagSlice(img.CondFlags)
		if err := checkCSRPartition("condensed csr", n, cond.c, func(x NodeID) NodeID { return img.CondRep[x] }); err != nil {
			return nil, err
		}
	}
	g.cond = cond

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// checkCSRShape verifies one CSR direction pair: start arrays are
// monotonic with n+1 entries ending at the edge count, and every split
// lies inside its node's span. Edge endpoint ranges are left to Validate.
func checkCSRShape(what string, n int, outEdges []Edge, outStart, outSplit []int32, inEdges []Edge, inStart, inSplit []int32) error {
	check := func(dir string, edges []Edge, start, split []int32) error {
		if len(start) != n+1 || len(split) != n {
			return fmt.Errorf("pag: image %s %s offsets have %d/%d entries for %d nodes",
				what, dir, len(start), len(split), n)
		}
		if n == 0 {
			if len(start) == 1 && start[0] == 0 && len(edges) == 0 {
				return nil
			}
			return fmt.Errorf("pag: image %s %s offsets inconsistent for empty graph", what, dir)
		}
		if start[0] != 0 || start[n] != int32(len(edges)) {
			return fmt.Errorf("pag: image %s %s offsets do not cover the edge array", what, dir)
		}
		for i := 0; i < n; i++ {
			if start[i] > start[i+1] {
				return fmt.Errorf("pag: image %s %s offsets not monotonic at node %d", what, dir, i)
			}
			if split[i] < start[i] || split[i] > start[i+1] {
				return fmt.Errorf("pag: image %s %s split outside span at node %d", what, dir, i)
			}
		}
		return nil
	}
	if err := check("out", outEdges, outStart, outSplit); err != nil {
		return err
	}
	return check("in", inEdges, inStart, inSplit)
}

// checkCSRPartition verifies what the shape check cannot: every span holds
// local edges strictly before its split and global edges after, and each
// edge sits in the span the accessors will serve it from (Src for the out
// direction, Dst for in; own reports the expected endpoint, identity for
// the base layout and the rep mapping for the condensed one).
func checkCSRPartition(what string, n int, f *csr, own func(NodeID) NodeID) error {
	dir := func(name string, edges []Edge, start, split []int32, endpoint func(Edge) NodeID) error {
		for i := 0; i < n; i++ {
			for j := start[i]; j < start[i+1]; j++ {
				e := edges[j]
				if local := j < split[i]; local != e.Kind.IsLocal() {
					return fmt.Errorf("pag: image %s %s span of node %d violates the local/global partition", what, name, i)
				}
				p := endpoint(e)
				if p < 0 || int(p) >= n || own(p) != NodeID(i) {
					return fmt.Errorf("pag: image %s %s span of node %d holds foreign edge %v", what, name, i, e)
				}
			}
		}
		return nil
	}
	if err := dir("out", f.outEdges, f.outStart, f.outSplit, func(e Edge) NodeID { return e.Src }); err != nil {
		return err
	}
	return dir("in", f.inEdges, f.inStart, f.inSplit, func(e Edge) NodeID { return e.Dst })
}

// flagBytes and nodeFlagSlice convert between the private nodeFlags and
// the image's plain bytes without exposing the flag type.
func flagBytes(fs []nodeFlags) []uint8 {
	out := make([]uint8, len(fs))
	for i, f := range fs {
		out[i] = uint8(f)
	}
	return out
}

func nodeFlagSlice(bs []uint8) []nodeFlags {
	out := make([]nodeFlags, len(bs))
	for i, b := range bs {
		out[i] = nodeFlags(b)
	}
	return out
}
