package delta

import (
	"cmp"
	"slices"
	"unsafe"

	"dynsum/internal/faultinject"
	"dynsum/internal/pag"
)

// This file implements Overlay.Apply — one epoch — plus the statistics and
// the Compact merge.
//
// Apply's cost is O(changed elements + repair blast radius): the nodes of
// redefined methods, the endpoints of added/dropped edges, and — for the
// condensed view — the representatives global-edge-adjacent to dissolved
// SCC members. It never walks the whole graph: the only O(n) work is the
// Base index, built once per frozen graph and shared by its overlays.

// ApplyStats reports what one epoch did. TouchedMethods is the engine's
// invalidation work list: exactly the pre-existing methods whose cached
// PPTA summaries may have changed (local-edge changes and global-flag
// flips; see the soundness argument in overlay.go / DESIGN.md §10).
type ApplyStats struct {
	Epoch int

	NewMethods       int
	NewCallSites     int
	NewNodes         int
	NewEdges         int // effective (post-dedup) added edges
	DroppedEdges     int
	RedefinedMethods int

	// TouchedMethods lists the pre-existing methods whose summaries must
	// be invalidated, sorted.
	TouchedMethods []pag.MethodID

	// FlagFlips counts existing nodes whose global-edge frontier flag went
	// from unset to set this epoch (each forces its method onto
	// TouchedMethods).
	FlagFlips int

	// DissolvedSCCs / RebuiltReps describe the local condensation repair.
	DissolvedSCCs int
	RebuiltReps   int

	// OverlayFraction is the overlay's size after this epoch as a fraction
	// of the base graph's edge records — the auto-compaction signal.
	OverlayFraction float64
}

// Stats is the overlay's cumulative state: the evolve experiment reports
// it, and a serving session reads its Bytes.
type Stats struct {
	Epochs         int
	PatchedNodes   int // nodes carrying base-view overlay adjacency
	PatchedMethods int // distinct methods containing patched nodes
	AddedMethods   int
	AddedNodes     int
	AddedCallSites int
	OverlayEdges   int // out-direction edge records held by the overlay
	BaseEdges      int // out-direction edge records in the base CSR
	DroppedEdges   int // cumulative
	DissolvedSCCs  int // cumulative
	RebuiltReps    int // cumulative

	// Bytes is what the overlay holds itself, the shared Base and base
	// graph excluded: its patch indexes, patch headers and edge lists, its
	// added nodes' flat blocks and its added records, counted by element
	// size (map and allocator overhead excluded). Apply keeps it as a
	// running count.
	Bytes int64
}

// Element sizes behind Stats.Bytes.
const (
	idBytes       = 4 // a NodeID, a MethodID, an offset or an index entry
	edgeBytes     = int64(unsafe.Sizeof(pag.Edge{}))
	patchBytes    = int64(unsafe.Sizeof(patchAdj{}))
	blockBytes    = int64(unsafe.Sizeof(addedBlock{}))
	nodeBytes     = int64(unsafe.Sizeof(pag.Node{}))
	methodBytes   = int64(unsafe.Sizeof(pag.Method{}))
	callSiteBytes = int64(unsafe.Sizeof(pag.CallSite{}))
)

// OverlayFraction returns OverlayEdges/BaseEdges (0 on an empty base).
func (s Stats) OverlayFraction() float64 {
	if s.BaseEdges == 0 {
		return 0
	}
	return float64(s.OverlayEdges) / float64(s.BaseEdges)
}

// Stats returns the overlay's cumulative statistics.
func (o *Overlay) Stats() Stats {
	// Every added node carries base-view adjacency (its flat-block span
	// or, once re-patched, a patch of its own); base nodes carry it once
	// patched.
	patched := len(o.addedNodes)
	methods := make(map[pag.MethodID]bool)
	for m, ns := range o.addedOf {
		if len(ns) > 0 {
			methods[m] = true
		}
	}
	for n := range o.baseIdx.nodes() {
		if int(n) >= o.baseNodes {
			break
		}
		patched++
		if m := o.nodeMethod(n); m != pag.NoMethod {
			methods[m] = true
		}
	}
	return Stats{
		Epochs:         o.epoch,
		PatchedNodes:   patched,
		PatchedMethods: len(methods),
		AddedMethods:   len(o.addedMethods),
		AddedNodes:     len(o.addedNodes),
		AddedCallSites: len(o.addedCallSites),
		OverlayEdges:   o.overlayEdges,
		BaseEdges:      o.g.NumEdges(),
		DroppedEdges:   o.droppedEdges,
		DissolvedSCCs:  o.dissolvedSCCs,
		RebuiltReps:    o.rebuiltReps,
		Bytes:          o.bytes,
	}
}

// Fraction returns the current overlay fraction (the Compact trigger).
func (o *Overlay) Fraction() float64 {
	if base := o.g.NumEdges(); base > 0 {
		return float64(o.overlayEdges) / float64(base)
	}
	return 0
}

// staged is the read-only plan one epoch compiles to: everything Apply's
// commit phase installs, computed against the pre-epoch overlay without
// mutating a single field. If Apply aborts anywhere up to (and including)
// the stage→commit boundary — the OverlayApply injection point — the
// overlay is exactly its pre-epoch self and the log is still applicable.
type staged struct {
	preMethods, preNodes int

	dropped map[pag.Edge]bool
	added   []pag.Edge

	touched      map[pag.MethodID]bool
	flipped      int
	localMethods map[pag.MethodID]bool

	// dissolve is the condensation-repair plan: each entry names a
	// surviving SCC to dissolve into singletons.
	dissolve []dissolvePlan

	patch    map[pag.NodeID]bool
	addedOut map[pag.NodeID][]pag.Edge
	addedIn  map[pag.NodeID][]pag.Edge
}

type dissolvePlan struct {
	rep     pag.NodeID
	members []pag.NodeID
}

// Apply advances the overlay by one epoch with the changes recorded in l.
// It validates the whole log first — a rejected log leaves the overlay
// untouched — then runs in two phases (DESIGN.md §12): stage computes the
// epoch's entire effect read-only (dropped and effective added edges, the
// invalidation work list, the dissolution and patch plans), and commit
// installs it. The OverlayApply fault-injection point sits exactly on the
// boundary, so a fault there proves the atomicity claim: nothing staged,
// nothing lost. The log is consumed by a successful Apply and left
// reusable by any pre-commit abort.
//
// Apply is a mutator: quiesce all engines reading the overlay first, as
// for the other engine mutators.
func (o *Overlay) Apply(l *Log) (ApplyStats, error) {
	if err := l.validate(o); err != nil {
		return ApplyStats{}, err
	}
	st := o.stage(l)
	faultinject.Fire(faultinject.OverlayApply)
	return o.commit(l, st), nil
}

// Broken reports that a commit phase started and did not finish: an
// abort (panic) landed mid-mutation and the overlay's state is not
// trustworthy. Recovery boundaries consult it to distinguish clean
// pre-commit aborts (convert to an error, keep serving) from genuine
// mid-commit corruption (propagate).
func (o *Overlay) Broken() bool { return o.committing }

// stage compiles the log into the epoch's plan without mutating the
// overlay. Log-added elements are not registered yet, so their metadata
// is resolved straight from the log where needed.
func (o *Overlay) stage(l *Log) staged {
	st := staged{
		preMethods:   l.baseMethods,
		preNodes:     l.baseNodes,
		dropped:      make(map[pag.Edge]bool),
		touched:      make(map[pag.MethodID]bool),
		localMethods: make(map[pag.MethodID]bool),
		patch:        make(map[pag.NodeID]bool),
		addedOut:     make(map[pag.NodeID][]pag.Edge),
		addedIn:      make(map[pag.NodeID][]pag.Edge),
	}
	preNodes := st.preNodes

	// nodeMethod over the pre-epoch tables plus the log's own records —
	// the staged equivalent of Overlay.nodeMethod once commit extends the
	// tables.
	nodeMethod := func(n pag.NodeID) pag.MethodID {
		if int(n) >= preNodes {
			return l.nodes[int(n)-preNodes].Method
		}
		return o.nodeMethod(n)
	}

	// Dropped edges: everything owned by a redefined method. The
	// pre-epoch method index is complete for them — validate guarantees
	// redefined methods pre-exist, and the log's own nodes carry no base
	// edges.
	for _, m := range l.redefined {
		for n := range o.nodesOf(m) {
			for _, e := range o.baseLocalOut(n) {
				if o.ownerMethod(e) == m {
					st.dropped[e] = true
				}
			}
			for _, e := range o.baseGlobalOut(n) {
				if o.ownerMethod(e) == m {
					st.dropped[e] = true
				}
			}
			for _, e := range o.baseLocalIn(n) {
				if o.ownerMethod(e) == m {
					st.dropped[e] = true
				}
			}
			for _, e := range o.baseGlobalIn(n) {
				if o.ownerMethod(e) == m {
					st.dropped[e] = true
				}
			}
		}
	}

	// Effective added edges: dedup within the log and against edges that
	// are present and surviving. A log edge identical to a dropped one is
	// a genuine re-add. An edge out of a log-added node cannot pre-exist.
	logSeen := make(map[pag.Edge]bool, len(l.edges))
	for _, e := range l.edges {
		if logSeen[e] {
			continue
		}
		logSeen[e] = true
		if !st.dropped[e] && int(e.Src) < preNodes && o.hasEdgeBase(e) {
			continue
		}
		if st.dropped[e] {
			delete(st.dropped, e) // re-added by the new body: net no-op
			continue
		}
		st.added = append(st.added, e)
	}

	// Invalidation: computed against the PRE-epoch state (which staging
	// guarantees by construction — nothing has been rebuilt), so flag
	// flips are detected exactly.
	for _, m := range l.redefined {
		st.touched[m] = true
	}
	flipped := make(map[pag.NodeID]bool)
	markTouched := func(m pag.MethodID) {
		if m != pag.NoMethod && int(m) < st.preMethods {
			st.touched[m] = true
		}
	}
	for _, e := range st.added {
		if e.Kind.IsLocal() {
			markTouched(nodeMethod(e.Src))
			continue
		}
		// The flag checks read the pre-rebuild state, so several edges
		// into one node all see the flip; flipped dedups the count per
		// node (markTouched is idempotent anyway).
		if int(e.Src) < preNodes && !o.HasGlobalOut(e.Src, false) {
			flipped[e.Src] = true
			markTouched(nodeMethod(e.Src))
		}
		if int(e.Dst) < preNodes && !o.HasGlobalIn(e.Dst, false) {
			flipped[e.Dst] = true
			markTouched(nodeMethod(e.Dst))
		}
	}
	st.flipped = len(flipped)

	// Dissolution plan: methods whose local edges changed lose their SCC
	// collapse — a changed body voids the freeze-time cycle proof, so
	// their nodes fall back to singleton representatives. Log-added
	// methods have no nodes in the index yet (and no groups); log-added
	// nodes of redefined methods are singletons by construction. Both
	// contribute nothing, exactly as they would post-registration.
	for _, m := range l.redefined {
		st.localMethods[m] = true
	}
	for _, e := range st.added {
		if e.Kind.IsLocal() {
			if m := nodeMethod(e.Src); m != pag.NoMethod {
				st.localMethods[m] = true
			}
		}
	}
	if !o.trivial {
		planned := make(map[pag.NodeID]bool)
		for _, m := range sortedMethods(st.localMethods) {
			for n := range o.nodesOf(m) {
				r := o.Rep(n)
				if planned[r] {
					continue
				}
				members := o.group(r)
				if members == nil {
					continue
				}
				planned[r] = true
				st.dissolve = append(st.dissolve, dissolvePlan{rep: r, members: members})
			}
		}
	}

	// Base-view patch set: endpoints of every changed edge plus every
	// added node (their adjacency exists only in the overlay).
	for e := range st.dropped {
		st.patch[e.Src] = true
		st.patch[e.Dst] = true
	}
	for _, e := range st.added {
		st.patch[e.Src] = true
		st.patch[e.Dst] = true
		st.addedOut[e.Src] = append(st.addedOut[e.Src], e)
		st.addedIn[e.Dst] = append(st.addedIn[e.Dst], e)
	}
	for i := range l.nodes {
		st.patch[pag.NodeID(preNodes+i)] = true
	}
	return st
}

// commit installs a staged epoch. From its first mutation to its last it
// holds o.committing, so an abort inside it is detectable as genuine
// corruption (Broken); everything fallible about the epoch already
// happened during staging.
func (o *Overlay) commit(l *Log, st staged) ApplyStats {
	o.committing = true
	preNodes := st.preNodes

	// 1. Metadata: methods, call sites and node records join the
	// overlay's side tables; the base graph is never written. The tables
	// outlive the epoch, so they grow to exactly their new length.
	o.addedMethods = append(growExact(o.addedMethods, len(l.methods)), l.methods...)
	for _, m := range l.methods {
		o.bytes += methodBytes + int64(len(m.Name))
	}
	o.addedCallSites = append(growExact(o.addedCallSites, len(l.callSites)), l.callSites...)
	for _, cs := range l.callSites {
		o.bytes += callSiteBytes + int64(len(cs.Name)) + idBytes*int64(len(cs.Targets))
	}
	o.addedNodes = append(growExact(o.addedNodes, len(l.nodes)), l.nodes...)
	for i, nd := range l.nodes {
		o.bytes += nodeBytes + int64(len(nd.Name))
		if nd.Method != pag.NoMethod {
			o.addedOf[nd.Method] = append(o.addedOf[nd.Method], pag.NodeID(preNodes+i))
			o.bytes += idBytes
		}
	}

	// 2. Condensation repair, part 1: dissolve the planned SCCs.
	var dissolved []pag.NodeID
	for _, p := range st.dissolve {
		o.dissolved[p.rep] = true
		o.bytes += idBytes
		dissolved = append(dissolved, p.members...)
	}
	o.dissolvedSCCs += len(st.dissolve)

	// 3. Base view: the epoch's added nodes as one flat block, then a
	// rebuilt patch for every older node of the patch set. Each rebuild
	// reads only its own node's spans, so the index takes the new
	// patches in one batch at the end.
	o.layOutBlock(preNodes, len(l.nodes), st.addedOut, st.addedIn)
	fresh := 0
	for n := range st.patch {
		if int(n) < preNodes && o.baseIdx.get(n) == noEntry {
			fresh++
		}
	}
	o.baseAdj = growExact(o.baseAdj, fresh)
	var changes []indexEntry
	for _, n := range sortedNodes(st.patch) {
		if int(n) >= preNodes {
			continue // laid out in the block
		}
		if e, ok := o.rebuildBase(n, st.dropped, st.addedOut[n], st.addedIn[n]); ok {
			changes = append(changes, e)
		}
	}
	o.bytes += o.baseIdx.update(changes)

	// 4. Condensation repair, part 2: rebuild the condensed spans whose
	// contents this epoch invalidated — the repaired representatives of
	// every patched node and every node of a local-change method, plus
	// the representatives global-edge-adjacent to dissolved members
	// (their freeze-time spans name the old representatives).
	rebuilt := 0
	if !o.trivial {
		condSet := make(map[pag.NodeID]bool)
		for n := range st.patch {
			condSet[o.Rep(n)] = true
		}
		for m := range st.localMethods {
			for n := range o.nodesOf(m) {
				condSet[o.Rep(n)] = true
			}
		}
		for _, d := range dissolved {
			for _, e := range o.baseGlobalOut(d) {
				condSet[o.Rep(e.Dst)] = true
			}
			for _, e := range o.baseGlobalIn(d) {
				condSet[o.Rep(e.Src)] = true
			}
			// Local neighbours live in the same (dissolved) method and are
			// already in condSet via the localMethods loop.
		}
		changes = changes[:0]
		for _, r := range sortedNodes(condSet) {
			if e, ok := o.rebuildCond(r); ok {
				changes = append(changes, e)
			}
		}
		o.bytes += o.condIdx.update(changes)
		rebuilt = len(condSet)
		o.rebuiltReps += rebuilt
	}

	// 5. Bookkeeping and the epoch's report.
	o.buf = nil
	o.droppedEdges += len(st.dropped)
	o.epoch++

	stats := ApplyStats{
		Epoch:            o.epoch,
		NewMethods:       len(l.methods),
		NewCallSites:     len(l.callSites),
		NewNodes:         len(l.nodes),
		NewEdges:         len(st.added),
		DroppedEdges:     len(st.dropped),
		RedefinedMethods: len(l.redefined),
		TouchedMethods:   sortedMethods(st.touched),
		FlagFlips:        st.flipped,
		DissolvedSCCs:    len(st.dissolve),
		RebuiltReps:      rebuilt,
		OverlayFraction:  o.Fraction(),
	}
	o.committing = false
	return stats
}

// layOutBlock lays the epoch's count added nodes, first..first+count-1,
// out as one flat block. Each node's spans are what rebuildBase gives a
// node with no edges yet: its added edges in log order within each
// partition half.
func (o *Overlay) layOutBlock(first, count int, addOut, addIn map[pag.NodeID][]pag.Edge) {
	if count == 0 {
		return
	}
	total := 0
	for i := 0; i < count; i++ {
		n := pag.NodeID(first + i)
		total += len(addOut[n]) + len(addIn[n])
	}
	b := addedBlock{
		first: pag.NodeID(first),
		off:   make([]int32, 0, 4*count+1),
		edges: make([]pag.Edge, 0, total),
	}
	half := func(adds []pag.Edge) {
		b.off = append(b.off, int32(len(b.edges)))
		for _, e := range adds {
			if e.Kind.IsLocal() {
				b.edges = append(b.edges, e)
			}
		}
		b.off = append(b.off, int32(len(b.edges)))
		for _, e := range adds {
			if e.Kind.IsGlobal() {
				b.edges = append(b.edges, e)
			}
		}
	}
	for i := 0; i < count; i++ {
		n := pag.NodeID(first + i)
		half(addOut[n])
		o.overlayEdges += len(addOut[n])
		half(addIn[n])
	}
	b.off = append(b.off, int32(len(b.edges)))
	// The windows of 64 added nodes that start in this block.
	windows := (first+count-o.baseNodes+63)>>6 - len(o.blockAt)
	o.blockAt = growExact(o.blockAt, windows)
	for range windows {
		o.blockAt = append(o.blockAt, int32(len(o.blocks)))
	}
	o.blocks = append(growExact(o.blocks, 1), b)
	o.bytes += blockBytes + idBytes*int64(len(b.off)+windows) + edgeBytes*int64(len(b.edges))
}

// rebuildBase installs n's base-view replacement adjacency: current edges
// minus dropped plus the epoch's additions, partition preserved. Order is
// deterministic: surviving edges keep their relative order, added edges
// append in log order within their partition half. A node without a
// patch yet gets a baseAdj slot, returned as the index entry to install.
func (o *Overlay) rebuildBase(n pag.NodeID, dropped map[pag.Edge]bool, addOut, addIn []pag.Edge) (indexEntry, bool) {
	buf := o.buf[:0]
	build := func(localCur, globalCur, adds []pag.Edge) (split int32) {
		for _, e := range localCur {
			if !dropped[e] {
				buf = append(buf, e)
			}
		}
		for _, e := range adds {
			if e.Kind.IsLocal() {
				buf = append(buf, e)
			}
		}
		split = int32(len(buf))
		for _, e := range globalCur {
			if !dropped[e] {
				buf = append(buf, e)
			}
		}
		for _, e := range adds {
			if e.Kind.IsGlobal() {
				buf = append(buf, e)
			}
		}
		return split
	}
	var a patchAdj
	a.outSplit = build(o.baseLocalOut(n), o.baseGlobalOut(n), addOut)
	a.outEnd = int32(len(buf))
	a.inSplit = build(o.baseLocalIn(n), o.baseGlobalIn(n), addIn)
	a.edges = exactCopy(buf)
	o.buf = buf

	out := int(a.outEnd)
	if p := o.baseIdx.get(n); p != noEntry {
		old := &o.baseAdj[p]
		o.overlayEdges += out - int(old.outEnd)
		o.bytes += edgeBytes * int64(len(a.edges)-len(old.edges))
		*old = a
		return indexEntry{}, false
	}
	if int(n) >= o.baseNodes {
		// An added node leaves its flat block; the block keeps the old
		// span's bytes, but the edge records it counts are replaced.
		_, off := o.addedNode(n)
		out -= int(off[2] - off[0])
	}
	o.baseAdj = append(o.baseAdj, a)
	o.overlayEdges += out
	o.bytes += patchBytes + edgeBytes*int64(len(a.edges))
	return indexEntry{n, int32(len(o.baseAdj) - 1)}, true
}

// rebuildCond installs representative r's condensed-view adjacency: the
// union of its surviving members' current base-view edges with endpoints
// mapped through the repaired rep function, intra-SCC assign self-loops
// removed and duplicates merged — exactly the freeze-time gather, run on
// one representative. When the result equals r's base-view spans edge
// for edge (the common case: a singleton whose neighbours are
// singletons), r reuses them instead of holding a copy, and a slot it
// held before is released for the next patch. It returns r's new index
// entry when that differs from its current one.
func (o *Overlay) rebuildCond(r pag.NodeID) (indexEntry, bool) {
	members := o.group(r)
	if members == nil {
		members = []pag.NodeID{r}
	}
	buf := o.buf[:0]
	gather := func(span func(pag.NodeID) []pag.Edge, local bool) int32 {
		start := len(buf)
		for _, mb := range members {
			for _, e := range span(mb) {
				me := pag.Edge{Src: o.Rep(e.Src), Dst: o.Rep(e.Dst), Kind: e.Kind, Label: e.Label}
				if local && me.Kind == pag.Assign && me.Src == me.Dst {
					continue // collapsed cycle edge: a state-level no-op
				}
				buf = append(buf, me)
			}
		}
		buf = buf[:start+len(dedupEdges(buf[start:]))]
		return int32(len(buf))
	}
	var a patchAdj
	a.outSplit = gather(o.baseLocalOut, true)
	a.outEnd = gather(o.baseGlobalOut, false)
	a.inSplit = gather(o.baseLocalIn, true)
	gather(o.baseGlobalIn, false)
	o.buf = buf
	a.edges = buf // compared in place, copied only if r keeps spans of its own

	p := o.condIdx.get(r)
	if o.sameAsBase(r, &a) {
		if p >= 0 {
			o.bytes -= edgeBytes * int64(len(o.condAdj[p].edges))
			o.condAdj[p] = patchAdj{}
			o.freeCond = append(o.freeCond, p)
		}
		want := int32(reuseBase)
		if int(r) >= o.baseNodes {
			want = noEntry // an added node's default
		}
		return indexEntry{r, want}, p != want
	}
	a.edges = exactCopy(buf)
	o.bytes += edgeBytes * int64(len(a.edges))
	old := p
	switch {
	case p >= 0:
		o.bytes -= edgeBytes * int64(len(o.condAdj[p].edges))
	case len(o.freeCond) > 0:
		p = o.freeCond[len(o.freeCond)-1]
		o.freeCond = o.freeCond[:len(o.freeCond)-1]
	default:
		p = int32(len(o.condAdj))
		o.condAdj = append(o.condAdj, patchAdj{})
		o.bytes += patchBytes
	}
	o.condAdj[p] = a
	return indexEntry{r, p}, p != old
}

// sameAsBase reports whether a's spans equal n's base-view spans edge
// for edge.
func (o *Overlay) sameAsBase(n pag.NodeID, a *patchAdj) bool {
	return slices.Equal(a.localOut(), o.baseLocalOut(n)) &&
		slices.Equal(a.globalOut(), o.baseGlobalOut(n)) &&
		slices.Equal(a.localIn(), o.baseLocalIn(n)) &&
		slices.Equal(a.globalIn(), o.baseGlobalIn(n))
}

// growExact returns s with room for n more elements and no more.
func growExact[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make(S, len(s), len(s)+n)
	copy(out, s)
	return out
}

// exactCopy copies edges into a slice of exactly their length (nil when
// empty): a patch outlives the epoch, so it carries no append slack.
func exactCopy(edges []pag.Edge) []pag.Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]pag.Edge, len(edges))
	copy(out, edges)
	return out
}

// Compact merges the overlay into a fresh, fully re-frozen (and
// re-condensed) Graph carrying identical node/method/call-site IDs, so
// cached query variables and result sets remain meaningful. The overlay
// itself is left untouched; callers (the engine's auto-compaction) swap
// the graph in and drop the overlay — and must also drop the summary
// cache, because the fresh condensation may choose different
// representatives.
func (o *Overlay) Compact() (*pag.Graph, error) {
	ng := pag.CopyTables(o)
	// Crash-consistency probe: the rebuild so far has only touched ng —
	// the overlay and its base graph are read-only throughout Compact, so
	// an abort here (or anywhere else in the rebuild) must leave the
	// pre-compaction engine fully usable.
	faultinject.Fire(faultinject.CompactRebuild)
	for n := range o.NumNodes() {
		for _, e := range o.baseLocalOut(pag.NodeID(n)) {
			ng.AddEdge(e)
		}
		for _, e := range o.baseGlobalOut(pag.NodeID(n)) {
			ng.AddEdge(e)
		}
	}
	// The rebuild preserves method and node IDs, so the open-world
	// bodyless-method table transfers verbatim.
	if err := ng.AdoptBodyless(o.g); err != nil {
		return nil, err
	}
	ng.ResolveDerived()
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	ng.Freeze()
	return ng, nil
}

// dedupEdges sorts es by (Src, Dst, Kind, Label) and removes duplicates in
// place (the freeze-time condensation's helper, local to this package).
func dedupEdges(es []pag.Edge) []pag.Edge {
	if len(es) < 2 {
		return es
	}
	slices.SortFunc(es, func(a, b pag.Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return slices.Compact(es)
}

func sortedNodes(set map[pag.NodeID]bool) []pag.NodeID {
	out := make([]pag.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func sortedMethods(set map[pag.MethodID]bool) []pag.MethodID {
	out := make([]pag.MethodID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}
