package core

import (
	"fmt"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file is the engine side of snapshot persistence (internal/persist):
// the hash-consed summary cache — the paper's whole reuse argument — can
// be exported as plain value slices and re-imported into a freshly built
// engine, so a restart answers its first query as warmly as the process
// that wrote the snapshot. The export/import pair lives in package core
// because cache keys (pptaState) and the tier's field-stack table are
// deliberately unexported.

// SummaryEntry is one exported cache entry: a PPTA start state (the
// field-stack ID refers to the snapshot's own stack table) and its cached
// objects and frontier.
type SummaryEntry struct {
	Node     pag.NodeID
	Fs       intstack.ID
	St       uint8
	Method   pag.MethodID
	Objs     []pag.NodeID
	Frontier []FrontierState
}

// SummarySnapshot is the exportable state of an engine's summary cache:
// the adjacency mode that keyed it (1 condensed, 2 base), the field-stack
// intern table as (parent, symbol) cell pairs in ID order, and the
// entries themselves.
// Re-pushing the cell pairs in order onto a fresh table reproduces every
// ID exactly (hash-consing assigns IDs densely in interning order), which
// is what lets entry keys survive the round trip unchanged.
type SummarySnapshot struct {
	CacheMode    int32
	StackParents []int32
	StackSyms    []int32
	Entries      []SummaryEntry
}

// ExportSummaries captures the engine's summary cache for a snapshot.
// Like every mutator-adjacent operation here, quiesce the engine first:
// the export reads the shards without a global freeze, so concurrent
// inserts may or may not be included. Entry slices are read-only views of
// the cache's arenas. Returns nil when the cache is cold (nothing worth
// persisting).
func (d *DynSum) ExportSummaries() *SummarySnapshot {
	s := &SummarySnapshot{CacheMode: d.adjacencyMode()}
	for id := intstack.ID(1); int(id) <= d.fields.Len(); id++ {
		sym, _ := d.fields.Peek(id)
		s.StackParents = append(s.StackParents, int32(d.fields.Pop(id)))
		s.StackSyms = append(s.StackSyms, sym)
	}
	gv := graphView{g: d.g, ov: d.ov}
	d.cache.each(func(k pptaState, r Summary) {
		s.Entries = append(s.Entries, SummaryEntry{
			Node:     k.node,
			Fs:       k.fs,
			St:       uint8(k.st),
			Method:   gv.nodeMethod(k.node),
			Objs:     r.Objects,
			Frontier: r.Frontier,
		})
	})
	if len(s.Entries) == 0 {
		return nil
	}
	return s
}

// adjacencyMode is the adjacency mode that keys the engine's summaries, in
// SummarySnapshot.CacheMode's encoding.
func (d *DynSum) adjacencyMode() int32 {
	if d.cfg.DisableCondense {
		return 2
	}
	return 1
}

// ImportSummaries restores an exported cache into this engine. The engine
// must be freshly built (empty cache, empty field table — so its tier must
// be fresh too, as NewDynSum's is): the snapshot's stack cells are
// re-interned to reproduce its field-stack IDs, which only works from
// ID 1. A snapshot keyed for the other adjacency mode imports nothing:
// its keys and frontiers name nodes this engine's queries never probe.
// A clean engine files the entries in its tier, any other in its
// private table. Every entry is range-checked against the engine's
// current view before insertion — a snapshot from a different program
// yields an error, never a cache entry that indexes out of bounds.
func (d *DynSum) ImportSummaries(s *SummarySnapshot) error {
	if s == nil {
		return nil
	}
	if d.cache.size() != 0 || d.fields.Len() != 0 {
		return fmt.Errorf("core: ImportSummaries needs a fresh engine (cache %d entries, %d field stacks interned)",
			d.cache.size(), d.fields.Len())
	}
	if s.CacheMode != 1 && s.CacheMode != 2 {
		return fmt.Errorf("core: summary snapshot has invalid cache mode %d", s.CacheMode)
	}
	if s.CacheMode != d.adjacencyMode() {
		return nil
	}
	if len(s.StackParents) != len(s.StackSyms) {
		return fmt.Errorf("core: summary snapshot stack table is ragged (%d parents, %d symbols)",
			len(s.StackParents), len(s.StackSyms))
	}
	for i := range s.StackParents {
		parent := intstack.ID(s.StackParents[i])
		if parent < 0 || int(parent) > i {
			return fmt.Errorf("core: summary snapshot stack cell %d has forward parent %d", i+1, parent)
		}
		if s.StackSyms[i] < 0 {
			return fmt.Errorf("core: summary snapshot stack cell %d has negative symbol", i+1)
		}
		if got := d.fields.Push(parent, s.StackSyms[i]); got != intstack.ID(i+1) {
			return fmt.Errorf("core: summary snapshot stack cell %d re-interned as %d", i+1, got)
		}
	}
	gv := graphView{g: d.g, ov: d.ov}
	numNodes := gv.numNodes()
	maxFs := intstack.ID(len(s.StackParents))
	for i, e := range s.Entries {
		if e.Node < 0 || int(e.Node) >= numNodes {
			return fmt.Errorf("core: summary snapshot entry %d keys node %d out of range", i, e.Node)
		}
		if e.Fs < 0 || e.Fs > maxFs {
			return fmt.Errorf("core: summary snapshot entry %d keys unknown field stack %d", i, e.Fs)
		}
		if e.St > uint8(S2) {
			return fmt.Errorf("core: summary snapshot entry %d has invalid state %d", i, e.St)
		}
		if e.Method != gv.nodeMethod(e.Node) {
			return fmt.Errorf("core: summary snapshot entry %d files node %d under method %d, graph says %d",
				i, e.Node, e.Method, gv.nodeMethod(e.Node))
		}
		for _, o := range e.Objs {
			if o < 0 || int(o) >= numNodes {
				return fmt.Errorf("core: summary snapshot entry %d holds object %d out of range", i, o)
			}
		}
		for _, fr := range e.Frontier {
			if fr.Node < 0 || int(fr.Node) >= numNodes {
				return fmt.Errorf("core: summary snapshot entry %d frontier node %d out of range", i, fr.Node)
			}
			if fr.Fs < 0 || fr.Fs > maxFs {
				return fmt.Errorf("core: summary snapshot entry %d frontier has unknown field stack %d", i, fr.Fs)
			}
			if fr.St > S2 {
				return fmt.Errorf("core: summary snapshot entry %d frontier has invalid state %d", i, fr.St)
			}
		}
	}
	clean := d.clean()
	for _, e := range s.Entries {
		d.cache.put(pptaState{node: e.Node, fs: e.Fs, st: State(e.St)}, e.Objs, e.Frontier, clean)
	}
	return nil
}
