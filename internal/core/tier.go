package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file splits the summary cache into storage and visibility. A DYNSUM
// summary depends only on its method's local edges and global flags
// (paper Alg. 3-4, DESIGN.md §10), so every engine over one frozen graph
// and Config that has never evolved computes the same set of objects and
// frontier states for a key — the same set, not always the same order:
// the order follows the Tarjan stack, so it depends on which state the
// traversal entered the key's SCC from. A SummaryTier stores each such
// base summary once, for every engine built on it; each engine keeps its
// own window on the tier:
//
//   - Tier. Striped open-addressing tables of packed keys (cache.go's
//     cacheStripe) over one hash-consed record store, plus the field-stack
//     table every engine on the tier interns into, so a key's field-stack
//     ID means the same in all of them. The tier is append-only: its graph
//     never changes, so no entry ever goes stale. Each entry is numbered
//     densely within its stripe; slots map the key to the number, and a
//     per-stripe array maps the number to the entry's record.
//   - View. An engine sees a tier entry only when its bit in the engine's
//     visibility bitset is set (one bit array per stripe, guarded by that
//     stripe's lock). Beside the bits the engine keeps a private
//     summaryCache for what it may not share.
//
// A lookup probes the private table first, then the tier, and counts a
// tier entry as a hit only when the engine's bit is set, so every engine
// sees exactly the keys it computed itself or imported. A clean engine
// (see DynSum.clean) writes back to the tier: a key the tier already holds
// keeps its stored, set-identical record and only becomes visible, so a
// later hit may hand the engine another engine's element order. The
// enginetest tier sweeps require that this never shows: engines on a
// shared tier match twins with tiers of their own in answers, error kinds
// and every Metrics field, with ample and with tight budgets. Every
// other engine writes to its private table, because an evolved engine's
// summary may differ from the base value (§10 leaves stale true→false
// flags in untouched methods on purpose). Invalidation clears the
// engine's bits for tier entries in the touched methods and drops the
// matching private entries; detaching (Compact) clears every bit, after
// which the engine runs on its private table alone.
//
// A tier is built for one graph and Config, so all of its engines share
// one summary cache and adjacency mode (Config.DisableCache,
// Config.DisableCondense): condensed summaries are keyed by SCC
// representative and could not answer a base-adjacency query.

// SummaryTier is the summary storage shared by every engine built on it
// (NewDynSum builds each engine a tier of its own; a server builds one
// tier and every session's engine on it). It is safe for concurrent use
// by all of its engines.
type SummaryTier struct {
	g   *pag.Graph
	cfg Config

	fields  intstack.Table // field stacks of every engine on the tier
	stripes [summaryShards]tierStripe
	store   resultStore

	// deltaBase indexes g for the delta overlays of the tier's engines,
	// built by the first ApplyDelta on any of them (deltaBaseOf), so
	// engines that never evolve do not pay for it.
	deltaBaseOnce sync.Once
	deltaBase     *delta.Base
	deltaBaseErr  error
}

// tierStripe is one stripe of a tier's key table: a cacheStripe whose
// slot values are entry numbers, dense within the stripe, and entries,
// which maps an entry number to its record. Entries are never removed, so
// the stripe holds len(entries) of them; entries is grown to the table's
// growth threshold whenever it fills, so it reallocates only when the
// table doubles.
type tierStripe struct {
	cacheStripe
	entries []uint32
}

// NewSummaryTier returns an empty tier for engines over g configured by
// cfg. Only engines whose graph is g (never evolved) write to it. Engines
// analyse frozen graphs only: on a graph still under construction it
// panics with an error wrapping pag.ErrNotFrozen.
func NewSummaryTier(g *pag.Graph, cfg Config) *SummaryTier {
	if !g.Frozen() {
		panic(fmt.Errorf("core: NewSummaryTier: %w", pag.ErrNotFrozen))
	}
	return &SummaryTier{g: g, cfg: cfg.WithDefaults()}
}

// NewDynSum builds an engine on the tier, with the tier's graph and
// Config. ctxs may be nil (a private table is created) or shared with
// other engines so that their points-to sets are directly comparable.
func (t *SummaryTier) NewDynSum(ctxs *intstack.Table) *DynSum {
	if ctxs == nil {
		ctxs = new(intstack.Table)
	}
	return &DynSum{
		g:      t.g,
		cfg:    t.cfg,
		fields: &t.fields,
		ctxs:   ctxs,
		cache:  &summaryView{tier: t},
	}
}

// deltaBaseOf returns the shared delta.Base of the tier's graph, building
// it on first use. Safe for concurrent use.
func (t *SummaryTier) deltaBaseOf() (*delta.Base, error) {
	t.deltaBaseOnce.Do(func() { t.deltaBase, t.deltaBaseErr = delta.NewBase(t.g) })
	return t.deltaBase, t.deltaBaseErr
}

// Entries returns the number of summaries the tier stores.
func (t *SummaryTier) Entries() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Bytes returns the heap the tier's tables and arenas hold: key slots,
// entry records, result arenas and the hash-consing table (the field-stack
// table is not counted).
func (t *SummaryTier) Bytes() int64 {
	var b int64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		b += int64(cap(s.keys))*8 + int64(cap(s.recs))*4 + int64(cap(s.entries))*4
		s.mu.RUnlock()
	}
	return b + t.store.bytes()
}

func (t *SummaryTier) stripe(pk uint64) (*tierStripe, int, uint64) {
	h := keyHash(pk)
	i := int(h >> (64 - summaryShardBits))
	return &t.stripes[i], i, h
}

// entry returns the number of the entry filed under sk (packed key + 1).
func (s *tierStripe) entry(sk, h uint64) (uint32, bool) {
	if i, ok := s.find(sk, h); ok {
		return s.recs[i], true
	}
	return 0, false
}

// add files sk, which the caller has checked is absent, as a new entry
// holding rec and returns its number.
func (s *tierStripe) add(sk, h uint64, rec uint32) uint32 {
	id := uint32(len(s.entries))
	s.set(sk, h, id)
	if len(s.entries) == cap(s.entries) {
		s.entries = slices.Grow(s.entries, len(s.keys)*3/4-len(s.entries))
	}
	s.entries = append(s.entries, rec)
	return id
}

// summaryView is one engine's window on its tier: the visibility bits and
// the private table. bits[s] has bit i set when entry i of tier stripe s
// is visible; it is read and written under that stripe's lock and grown
// to the stripe's capacity, so it reallocates only when the stripe does.
type summaryView struct {
	tier *SummaryTier
	bits [summaryShards][]uint64

	// visible counts the set bits.
	visible atomic.Int64
	// privUsed is set before the first private insert, so an engine that
	// has only ever shared probes the tier alone.
	privUsed atomic.Bool
	// detached is set by detach: the engine has left the tier for good.
	detached atomic.Bool

	priv summaryCache
}

// has reports whether the view sees entry id of stripe s. The caller
// holds the stripe's lock.
func (v *summaryView) has(s int, id uint32) bool {
	w := v.bits[s]
	return int(id>>6) < len(w) && w[id>>6]&(1<<(id&63)) != 0
}

// reveal makes entry id of stripe ts (stripe s) visible, reporting whether
// it was hidden. The caller holds the stripe's write lock.
func (v *summaryView) reveal(ts *tierStripe, s int, id uint32) bool {
	w := v.bits[s]
	if int(id>>6) >= len(w) {
		nw := make([]uint64, max(int(id>>6)+1, (cap(ts.entries)+63)/64))
		copy(nw, w)
		v.bits[s], w = nw, nw
	}
	bit := uint64(1) << (id & 63)
	if w[id>>6]&bit != 0 {
		return false
	}
	w[id>>6] |= bit
	v.visible.Add(1)
	return true
}

// get returns the summary cached for k: the private entry, else the tier
// entry when the view sees it. Hits are read-only views into arenas that
// never move (see cache.go).
func (v *summaryView) get(k pptaState) (Summary, bool) {
	pk := pkey(k)
	if v.privUsed.Load() {
		if sum, ok := v.priv.get(k); ok {
			return sum, true
		}
	}
	t := v.tier
	ts, s, h := t.stripe(pk)
	ts.mu.RLock()
	id, ok := ts.entry(pk+1, h)
	var sum Summary
	if ok = ok && v.has(s, id); ok {
		sum = t.store.view(ts.entries[id])
	}
	ts.mu.RUnlock()
	return sum, ok
}

// commit publishes the write-backs queued in sc (pendKeys/pendRIdx) and
// returns how many keys became newly visible to this engine. A clean
// engine writes to the tier: keys the tier already holds are only
// revealed, and just the results of the keys it lacks are filed. Any
// other engine files everything in its private table.
func (v *summaryView) commit(sc *Scratch, clean bool) int {
	if !clean {
		v.privUsed.Store(true)
		gen := v.priv.store.internPending(sc)
		return v.priv.putBatch(sc.pendKeys, sc.pendRec, gen)
	}
	fresh := v.revealPending(sc)
	if len(sc.pendKeys) > 0 {
		v.tier.store.internPending(sc)
		fresh += v.putTier(sc.pendKeys, sc.pendRec)
	}
	return fresh
}

// revealPending reveals every pending key the tier already holds and
// drops it from sc's queue, keeping the queue's order (runs of one SCC's
// result stay runs). It returns how many keys it newly revealed.
func (v *summaryView) revealPending(sc *Scratch) int {
	t := v.tier
	fresh, keep := 0, 0
	for i, k := range sc.pendKeys {
		faultinject.Fire(faultinject.CachePutBatch)
		pk := pkey(k)
		ts, s, h := t.stripe(pk)
		ts.mu.Lock()
		id, ok := ts.entry(pk+1, h)
		if ok && v.reveal(ts, s, id) {
			fresh++
		}
		ts.mu.Unlock()
		if !ok {
			sc.pendKeys[keep], sc.pendRIdx[keep] = k, sc.pendRIdx[i]
			keep++
		}
	}
	sc.pendKeys, sc.pendRIdx = sc.pendKeys[:keep], sc.pendRIdx[:keep]
	return fresh
}

// putTier files keys[i] under record recs[i] in the tier (unless another
// engine filed it meanwhile, whose set-identical record then stays) and
// reveals it, returning how many keys were newly revealed.
func (v *summaryView) putTier(keys []pptaState, recs []uint32) int {
	t := v.tier
	fresh := 0
	for i, k := range keys {
		faultinject.Fire(faultinject.CachePutBatch)
		pk := pkey(k)
		ts, s, h := t.stripe(pk)
		ts.mu.Lock()
		id, ok := ts.entry(pk+1, h)
		if !ok {
			id = ts.add(pk+1, h, recs[i])
		}
		if v.reveal(ts, s, id) {
			fresh++
		}
		ts.mu.Unlock()
	}
	return fresh
}

// put files one result under k — to the tier when clean, else privately.
// Imports and test hooks use it; write-backs go through commit.
func (v *summaryView) put(k pptaState, objs []pag.NodeID, frs []FrontierState, clean bool) {
	if !clean {
		v.privUsed.Store(true)
		v.priv.put(k, objs, frs)
		return
	}
	rec, _ := v.tier.store.file(objs, frs)
	v.putTier([]pptaState{k}, []uint32{rec})
}

// size returns the number of summaries the engine sees.
func (v *summaryView) size() int { return int(v.visible.Load()) + v.priv.size() }

// deleteNodes hides every visible tier entry and drops every private
// entry whose key node is in nodes, returning how many it removed. Each
// tier stripe is scanned once under its write lock (the bits are this
// engine's, but its readers may run concurrently in tests that probe
// memory safety); a view that sees nothing skips the tier.
func (v *summaryView) deleteNodes(nodes bitset) int {
	dropped := v.priv.deleteNodes(nodes)
	if v.visible.Load() == 0 {
		return dropped
	}
	for s := range v.tier.stripes {
		ts := &v.tier.stripes[s]
		ts.mu.Lock()
		hidden := 0
		for i, sk := range ts.keys {
			if id := ts.recs[i]; nodes.has((sk-1)>>32) && v.has(s, id) {
				v.bits[s][id>>6] &^= 1 << (id & 63)
				hidden++
			}
		}
		ts.mu.Unlock()
		v.visible.Add(-int64(hidden))
		dropped += hidden
	}
	return dropped
}

// detach takes the engine off the tier for good: every bit is dropped,
// stripe by stripe under the write locks, and the private table cleared;
// from now on the engine is never clean.
func (v *summaryView) detach() {
	v.detached.Store(true)
	for s := range v.tier.stripes {
		ts := &v.tier.stripes[s]
		ts.mu.Lock()
		v.visible.Add(-int64(v.popcount(s)))
		v.bits[s] = nil
		ts.mu.Unlock()
	}
	v.priv.clear()
}

// each calls fn for every summary the engine sees: the private entries,
// then the visible tier entries, stripe by stripe under the read locks.
// fn must not call back into the cache.
func (v *summaryView) each(fn func(k pptaState, sum Summary)) {
	v.priv.each(fn)
	if v.visible.Load() == 0 {
		return
	}
	t := v.tier
	for s := range t.stripes {
		ts := &t.stripes[s]
		ts.mu.RLock()
		for i, sk := range ts.keys {
			if sk != 0 && v.has(s, ts.recs[i]) {
				fn(unpackKey(sk-1), t.store.view(ts.entries[ts.recs[i]]))
			}
		}
		ts.mu.RUnlock()
	}
}

// popcount returns the number of set bits of stripe s's array. The
// caller holds the stripe's lock.
func (v *summaryView) popcount(s int) int {
	n := 0
	for _, w := range v.bits[s] {
		n += bits.OnesCount64(w)
	}
	return n
}
