// Package delta makes a frozen PAG evolve: it implements the epoch-based
// overlay that lets the paper's headline *dynamic* scenario — code arriving
// while the analysis is live (class loading, JIT recompilation, an IDE
// session) — run on the frozen CSR layout that every engine in this
// repository analyses.
//
// The model is a change log applied in epochs. A Log records structured,
// method-granular program changes:
//
//   - AddMethod / AddCallSite / AddNode: new program elements (a class
//     being loaded brings its methods, their variables and objects, and
//     the call sites in their bodies).
//   - AddEdge: new PAG edges, into new or existing methods (a new caller
//     adds entry/exit edges into existing code; a loaded class wires its
//     statements).
//   - RedefineMethod: a method is recompiled — every edge owned by the
//     method is dropped, and the log's AddNode/AddEdge entries for that
//     method form its replacement body.
//
// Applying a Log to an Overlay advances the overlay by one epoch: patched
// nodes gain per-node overlay adjacency (base CSR spans stay untouched and
// keep serving every unpatched node), the freeze-time condensation is
// repaired locally (SCCs of patched methods dissolve into singletons,
// untouched SCCs keep their representatives and therefore their shared
// summaries), and the apply result names exactly the methods whose cached
// PPTA summaries must be invalidated — the engine drops them in one scan
// of its summary cache.
//
// The overlay view preserves the local-first/global-last adjacency
// partition, so the query engines resolve it exactly like the condensation
// overlay: one predictable branch per access, and the PPTA, the
// memoisation and the splice-in path run unmodified on evolved graphs.
// Once the overlay outgrows a configurable fraction of the base, Compact
// merges it into a fresh frozen CSR with a full recondense.
package delta

import (
	"fmt"

	"dynsum/internal/pag"
)

// Log is one epoch's worth of recorded program changes. Create one with
// Overlay.NewLog (or core.DynSum.NewDeltaLog at the engine level) so it is
// positioned at the overlay's current method/node/call-site counts; IDs
// returned by the Add methods are the IDs the elements will carry once the
// log is applied. A Log is single-use: Apply consumes it.
type Log struct {
	// Snapshot of the overlay's counters at creation; Apply validates
	// these so stale logs (created before another epoch landed) fail
	// loudly instead of mis-numbering their elements.
	baseMethods   int
	baseNodes     int
	baseCallSites int

	methods   []pag.Method
	callSites []pag.CallSite
	nodes     []pag.Node
	edges     []pag.Edge
	redefined []pag.MethodID
}

// NewLog starts an empty log positioned at the given element counts.
// Prefer Overlay.NewLog, which fills the counts in.
func NewLog(numMethods, numNodes, numCallSites int) *Log {
	return &Log{baseMethods: numMethods, baseNodes: numNodes, baseCallSites: numCallSites}
}

// AddMethod records a new method and returns the ID it will carry after
// this log is applied.
func (l *Log) AddMethod(name string, class pag.ClassID) pag.MethodID {
	l.methods = append(l.methods, pag.Method{Name: name, Class: class})
	return pag.MethodID(l.baseMethods + len(l.methods) - 1)
}

// AddCallSite records a new call site (metadata for entry/exit edge
// labels) and returns its post-apply ID. cs.Caller may be an existing or a
// log-added method.
func (l *Log) AddCallSite(cs pag.CallSite) pag.CallSiteID {
	l.callSites = append(l.callSites, cs)
	return pag.CallSiteID(l.baseCallSites + len(l.callSites) - 1)
}

// AddNode records a new node — in a log-added method, or in an existing
// one (a recompiled body's fresh temporaries) — and returns its post-apply
// ID.
func (l *Log) AddNode(kind pag.NodeKind, method pag.MethodID, class pag.ClassID, name string) pag.NodeID {
	l.nodes = append(l.nodes, pag.Node{Kind: kind, Method: method, Class: class, Name: name})
	return pag.NodeID(l.baseNodes + len(l.nodes) - 1)
}

// AddEdge records a new edge. Endpoints may mix existing and log-added
// nodes; labels reference existing or log-added call sites. Duplicates of
// edges already present (and not dropped by a redefinition in this log)
// are suppressed at apply time, mirroring Graph.AddEdge.
func (l *Log) AddEdge(e pag.Edge) {
	l.edges = append(l.edges, e)
}

// RedefineMethod records that method m was recompiled: applying the log
// drops every edge owned by m — its local edges, the entry/exit edges of
// its call sites, and its assignglobal statements — before the log's
// AddNode/AddEdge entries install the replacement body. m must be a
// pre-existing method. Call-site metadata of the old body is retained
// (labels stay resolvable); its edges are gone.
func (l *Log) RedefineMethod(m pag.MethodID) {
	l.redefined = append(l.redefined, m)
}

// BaseCounts returns the method/node/call-site counts the log was
// positioned at — the state it expects the overlay to be in when applied.
func (l *Log) BaseCounts() (methods, nodes, callSites int) {
	return l.baseMethods, l.baseNodes, l.baseCallSites
}

// Empty reports whether the log records no change at all.
func (l *Log) Empty() bool {
	return len(l.methods) == 0 && len(l.callSites) == 0 && len(l.nodes) == 0 &&
		len(l.edges) == 0 && len(l.redefined) == 0
}

// validate checks the log against the overlay it is about to be applied
// to. It runs before any mutation, so a rejected log leaves the overlay
// (and the base graph's metadata tables) untouched.
func (l *Log) validate(o *Overlay) error {
	if l.baseMethods != o.NumMethods() || l.baseNodes != o.NumNodes() || l.baseCallSites != o.NumCallSites() {
		return fmt.Errorf("delta: stale log (created at %d methods/%d nodes/%d call sites, overlay now at %d/%d/%d); create the log after the previous epoch",
			l.baseMethods, l.baseNodes, l.baseCallSites,
			o.NumMethods(), o.NumNodes(), o.NumCallSites())
	}
	numMethods := l.baseMethods + len(l.methods)
	numNodes := l.baseNodes + len(l.nodes)
	numCallSites := l.baseCallSites + len(l.callSites)

	methodOK := func(m pag.MethodID) bool { return m >= 0 && int(m) < numMethods }
	for i, m := range l.methods {
		if m.Class != pag.NoClass && int(m.Class) >= o.g.NumClasses() {
			return fmt.Errorf("delta: added method %q has unknown class %d", m.Name, m.Class)
		}
		_ = i
	}
	for _, cs := range l.callSites {
		if !methodOK(cs.Caller) {
			return fmt.Errorf("delta: call site %q has unknown caller method %d", cs.Name, cs.Caller)
		}
		// Targets are pure metadata and may name methods that arrive in a
		// later epoch — a call into code not yet loaded — so only their
		// sign is checked.
		for _, t := range cs.Targets {
			if t < 0 {
				return fmt.Errorf("delta: call site %q has negative target method %d", cs.Name, t)
			}
		}
	}
	for _, n := range l.nodes {
		switch n.Kind {
		case pag.Global:
			if n.Method != pag.NoMethod {
				return fmt.Errorf("delta: added global %q carries method %d; globals have none", n.Name, n.Method)
			}
		default:
			if !methodOK(n.Method) {
				return fmt.Errorf("delta: added node %q has unknown method %d", n.Name, n.Method)
			}
		}
	}
	for _, m := range l.redefined {
		if m < 0 || int(m) >= l.baseMethods {
			return fmt.Errorf("delta: RedefineMethod(%d) names no pre-existing method", m)
		}
	}

	nodeMeta := func(n pag.NodeID) pag.Node {
		if int(n) < l.baseNodes {
			return o.Node(n)
		}
		return l.nodes[int(n)-l.baseNodes]
	}
	for _, e := range l.edges {
		if e.Src < 0 || int(e.Src) >= numNodes || e.Dst < 0 || int(e.Dst) >= numNodes {
			return fmt.Errorf("delta: edge %v endpoint out of range", e)
		}
		src, dst := nodeMeta(e.Src), nodeMeta(e.Dst)
		switch e.Kind {
		case pag.New:
			if src.Kind != pag.Object {
				return fmt.Errorf("delta: new edge %d->%d must originate at an object", e.Src, e.Dst)
			}
			if dst.Kind == pag.Global {
				return fmt.Errorf("delta: new edge %d->%d targets a global", e.Src, e.Dst)
			}
		case pag.Load, pag.Store:
			if e.Field() < 0 || int(e.Field()) >= o.g.NumFields() {
				return fmt.Errorf("delta: %s edge %d->%d has unknown field %d", e.Kind, e.Src, e.Dst, e.Label)
			}
		case pag.Entry, pag.Exit:
			if e.Site() < 0 || int(e.Site()) >= numCallSites {
				return fmt.Errorf("delta: %s edge %d->%d has unknown call site %d", e.Kind, e.Src, e.Dst, e.Label)
			}
		case pag.Assign:
			if src.Kind == pag.Global || dst.Kind == pag.Global {
				return fmt.Errorf("delta: assign edge %d->%d touches a global; use assignglobal", e.Src, e.Dst)
			}
		}
		if e.Kind.IsLocal() {
			if e.Kind != pag.New && (src.Kind == pag.Global || dst.Kind == pag.Global) {
				return fmt.Errorf("delta: local %s edge %d->%d touches a global node", e.Kind, e.Src, e.Dst)
			}
			if src.Method != dst.Method {
				return fmt.Errorf("delta: local %s edge %d->%d crosses methods %d and %d",
					e.Kind, e.Src, e.Dst, src.Method, dst.Method)
			}
		}
	}
	return nil
}
