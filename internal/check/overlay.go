package check

import (
	"dynsum/internal/pag"
)

// OverlayView is the read surface Overlay validates; *delta.Overlay
// implements it. The condensed flag of each accessor selects the
// repaired condensation view.
type OverlayView interface {
	NumNodes() int
	Node(n pag.NodeID) pag.Node
	NodeString(n pag.NodeID) string
	Rep(n pag.NodeID) pag.NodeID
	LocalOut(n pag.NodeID, condensed bool) []pag.Edge
	GlobalOut(n pag.NodeID, condensed bool) []pag.Edge
	LocalIn(n pag.NodeID, condensed bool) []pag.Edge
	GlobalIn(n pag.NodeID, condensed bool) []pag.Edge
	HasGlobalIn(n pag.NodeID, condensed bool) bool
	HasGlobalOut(n pag.NodeID, condensed bool) bool
	HasLocalEdges(n pag.NodeID, condensed bool) bool
}

// Overlay validates the delta overlay o over its frozen base graph:
//
//   - the base arrays are byte-untouched: Fingerprint(base) still equals
//     baseFP (captured before the first ApplyDelta; pass 0 to skip)
//   - the patched base view keeps every frozen-graph span invariant:
//     local/global partition, span anchoring, in-range endpoints,
//     deduplication, and an exact out/in mirror
//   - base-view adjacency flags equal span emptiness exactly
//   - the repaired Rep function is consistent: idempotent, smallest-member,
//     method-preserving, identity for added nodes
//   - the repaired condensed view equals a from-scratch condensation of
//     the patched base view: non-representatives expose empty spans, and
//     every representative's spans are exactly the deduplicated
//     rep-mapped union of its members' base-view spans minus assign
//     self-loops — which is precisely the "no rep left unrepaired after
//     SCC dissolution" property
//   - condensed flags never understate a span, and the global-edge flags
//     are exact
//
// base must be the frozen graph the overlay was built on. When the base
// condensation is trivial the condensed view is defined to coincide with
// the base view, and is checked against it verbatim.
func Overlay(o OverlayView, base *pag.Graph, baseFP uint64) error {
	r := &reporter{}
	if baseFP != 0 {
		if fp := Fingerprint(base); fp != baseFP {
			r.errorf("overlay: base graph fingerprint changed: %#x -> %#x (frozen arrays were written)", baseFP, fp)
		}
	}

	n := o.NumNodes()
	mirror := map[pag.Edge]int{}
	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		lo, gout := o.LocalOut(nd, false), o.GlobalOut(nd, false)
		li, gin := o.LocalIn(nd, false), o.GlobalIn(nd, false)

		checkOverlaySpan(r, o, nd, "base local-out", lo, true, false)
		checkOverlaySpan(r, o, nd, "base global-out", gout, false, false)
		checkOverlaySpan(r, o, nd, "base local-in", li, true, true)
		checkOverlaySpan(r, o, nd, "base global-in", gin, false, true)

		checkFlagOverlay(r, o, nd, "HasLocalEdges(base)", o.HasLocalEdges(nd, false), len(lo)+len(li))
		checkFlagOverlay(r, o, nd, "HasGlobalOut(base)", o.HasGlobalOut(nd, false), len(gout))
		checkFlagOverlay(r, o, nd, "HasGlobalIn(base)", o.HasGlobalIn(nd, false), len(gin))

		for _, e := range lo {
			mirror[e]++
		}
		for _, e := range gout {
			mirror[e]++
		}
		for _, e := range li {
			mirror[e]--
		}
		for _, e := range gin {
			mirror[e]--
		}
	}
	for e, c := range mirror {
		if c != 0 && !r.full() {
			side := "out without in"
			if c < 0 {
				side = "in without out"
			}
			r.errorf("overlay: base view edge %s -%s-> %s present %s (imbalance %+d)",
				nodeName(o, e.Src), e.Kind, nodeName(o, e.Dst), side, c)
		}
	}

	checkOverlayRep(r, o, n)

	cond := base.Condensation()
	if cond == nil || cond.Trivial() {
		checkOverlayTrivialCond(r, o, n)
	} else {
		checkOverlayCondensed(r, o, n)
	}
	return r.err()
}

// checkOverlaySpan validates one overlay span against the frozen-layout
// invariants (partition, anchoring, ranges, dedup).
func checkOverlaySpan(r *reporter, o OverlayView, n pag.NodeID, span string, es []pag.Edge, local, in bool) {
	seen := map[pag.Edge]bool{}
	for _, e := range es {
		if r.full() {
			return
		}
		if e.Src < 0 || int(e.Src) >= o.NumNodes() || e.Dst < 0 || int(e.Dst) >= o.NumNodes() {
			r.errorf("overlay: %s span of %s: edge %v endpoint out of range [0,%d)", span, o.NodeString(n), e, o.NumNodes())
			continue
		}
		if local != e.Kind.IsLocal() {
			r.errorf("overlay: %s span of %s holds %s edge %s -> %s — partition broken",
				span, o.NodeString(n), e.Kind, nodeName(o, e.Src), nodeName(o, e.Dst))
		}
		anchor := e.Src
		if in {
			anchor = e.Dst
		}
		if anchor != n {
			r.errorf("overlay: %s span of %s holds foreign edge %s -%s-> %s",
				span, o.NodeString(n), nodeName(o, e.Src), e.Kind, nodeName(o, e.Dst))
		}
		if seen[e] {
			r.errorf("overlay: %s span of %s holds duplicate edge %s -%s-> %s",
				span, o.NodeString(n), nodeName(o, e.Src), e.Kind, nodeName(o, e.Dst))
		}
		seen[e] = true
	}
}

func checkFlagOverlay(r *reporter, o OverlayView, n pag.NodeID, name string, flag bool, spanLen int) {
	if flag != (spanLen > 0) {
		r.errorf("overlay: %s of %s = %v but spans hold %d edges", name, o.NodeString(n), flag, spanLen)
	}
}

// checkOverlayRep validates the repaired representative array.
func checkOverlayRep(r *reporter, o OverlayView, n int) {
	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		rep := o.Rep(nd)
		if rep < 0 || int(rep) >= n {
			r.errorf("overlay: Rep(%s) = %d out of range", o.NodeString(nd), rep)
			continue
		}
		if rep > nd {
			r.errorf("overlay: Rep(%s) = %s is not the smallest member", o.NodeString(nd), o.NodeString(rep))
		}
		if rr := o.Rep(rep); rr != rep {
			r.errorf("overlay: Rep not idempotent at %s: Rep=%s, Rep(Rep)=%s",
				o.NodeString(nd), o.NodeString(rep), o.NodeString(rr))
		}
		if o.Node(nd).Method != o.Node(rep).Method {
			r.errorf("overlay: SCC of %s crosses methods: member %s", o.NodeString(rep), o.NodeString(nd))
		}
	}
}

// checkOverlayTrivialCond verifies that over a trivially-condensed base
// the condensed view coincides with the base view, node by node.
func checkOverlayTrivialCond(r *reporter, o OverlayView, n int) {
	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		if o.Rep(nd) != nd {
			r.errorf("overlay: Rep(%s) = %s under a trivial base condensation", o.NodeString(nd), o.NodeString(o.Rep(nd)))
		}
		if !edgesEqual(o.LocalOut(nd, true), o.LocalOut(nd, false)) ||
			!edgesEqual(o.GlobalOut(nd, true), o.GlobalOut(nd, false)) ||
			!edgesEqual(o.LocalIn(nd, true), o.LocalIn(nd, false)) ||
			!edgesEqual(o.GlobalIn(nd, true), o.GlobalIn(nd, false)) {
			r.errorf("overlay: condensed view of %s diverges from base view despite trivial condensation", o.NodeString(nd))
		}
	}
}

// checkOverlayCondensed recomputes the expected condensation of the
// patched base view and compares the repaired condensed view against it.
func checkOverlayCondensed(r *reporter, o OverlayView, n int) {
	members := map[pag.NodeID][]pag.NodeID{}
	for i := 0; i < n; i++ {
		nd := pag.NodeID(i)
		rep := o.Rep(nd)
		if rep < 0 || int(rep) >= n {
			continue // reported by checkOverlayRep
		}
		members[rep] = append(members[rep], nd)
	}

	gather := func(ms []pag.NodeID, span func(pag.NodeID, bool) []pag.Edge, strip bool) []pag.Edge {
		var out []pag.Edge
		for _, m := range ms {
			for _, e := range span(m, false) {
				if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
					continue // out-of-range endpoint, reported by the base-span check
				}
				me := pag.Edge{Src: o.Rep(e.Src), Dst: o.Rep(e.Dst), Kind: e.Kind, Label: e.Label}
				if strip && me.Kind == pag.Assign && me.Src == me.Dst {
					continue
				}
				out = append(out, me)
			}
		}
		return sortedDedup(out)
	}

	for i := 0; i < n && !r.full(); i++ {
		nd := pag.NodeID(i)
		if o.Rep(nd) != nd {
			if len(o.LocalOut(nd, true))+len(o.GlobalOut(nd, true))+
				len(o.LocalIn(nd, true))+len(o.GlobalIn(nd, true)) != 0 {
				r.errorf("overlay: non-representative %s has non-empty condensed spans", o.NodeString(nd))
			}
			continue
		}
		ms := members[nd]
		type spanCase struct {
			name  string
			got   []pag.Edge
			want  []pag.Edge
			local bool
		}
		cases := []spanCase{
			{"local-out", o.LocalOut(nd, true), gather(ms, o.LocalOut, true), true},
			{"global-out", o.GlobalOut(nd, true), gather(ms, o.GlobalOut, false), false},
			{"local-in", o.LocalIn(nd, true), gather(ms, o.LocalIn, true), true},
			{"global-in", o.GlobalIn(nd, true), gather(ms, o.GlobalIn, false), false},
		}
		localLen, ginLen, goutLen := 0, 0, 0
		for _, cs := range cases {
			gs := sortedDedup(append([]pag.Edge(nil), cs.got...))
			if len(gs) != len(cs.got) {
				r.errorf("overlay: condensed %s span of %s holds duplicate edges", cs.name, o.NodeString(nd))
			}
			if !edgesEqual(gs, cs.want) {
				r.errorf("overlay: condensed %s span of %s diverges from member union: got %d edges, want %d — repair incomplete after SCC dissolution?",
					cs.name, o.NodeString(nd), len(gs), len(cs.want))
			}
			if cs.local {
				localLen += len(cs.got)
			}
		}
		ginLen = len(cases[3].got)
		goutLen = len(cases[1].got)

		// Global flags are exact under every repair state; the local flag
		// may legitimately overstate (an all-assign SCC keeps its members'
		// aggregated flag while its condensed spans collapse to nothing),
		// so only understatement is a violation.
		if o.HasGlobalIn(nd, true) != (ginLen > 0) {
			r.errorf("overlay: HasGlobalIn(cond) of %s = %v but span holds %d edges", o.NodeString(nd), o.HasGlobalIn(nd, true), ginLen)
		}
		if o.HasGlobalOut(nd, true) != (goutLen > 0) {
			r.errorf("overlay: HasGlobalOut(cond) of %s = %v but span holds %d edges", o.NodeString(nd), o.HasGlobalOut(nd, true), goutLen)
		}
		if localLen > 0 && !o.HasLocalEdges(nd, true) {
			r.errorf("overlay: HasLocalEdges(cond) of %s = false but spans hold %d edges", o.NodeString(nd), localLen)
		}
	}
}
