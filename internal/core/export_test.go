package core

import (
	"fmt"
	"sort"

	"dynsum/internal/pag"
)

// InvalidateMethod drops the summaries whose key node lies in method m and
// returns how many it dropped, as ApplyDelta does for each method an
// epoch touches; tests call it to check the invalidation scan directly.
func (d *DynSum) InvalidateMethod(m pag.MethodID) int {
	return d.invalidateMethods([]pag.MethodID{m})
}

// CacheDump renders every summary-cache entry — key fields and full result
// contents — as a sorted string list. Tests use it to assert that an
// operation left the cache byte-identical (the abort-rollback guarantee)
// without exporting the cache types themselves.
func CacheDump(d *DynSum) []string {
	var out []string
	d.cache.each(func(k pptaState, r Summary) {
		out = append(out, fmt.Sprintf("n%d/f%d/%s objs=%v frontier=%v",
			k.node, k.fs, k.st, r.Objects, r.Frontier))
	})
	sort.Strings(out)
	return out
}

// ClearCache empties the engine's tier in place and the engine's view, so
// a test can measure the cold query path repeatedly on one engine: every
// write-back hash-conses and files its result again, as on a new engine's
// first query. Like summaryCache.clear it keeps the key tables' storage
// (zeroed), the entry arrays and the view's bit arrays, and releases the
// arenas; the field-stack table is kept. The engine must be the only one
// on its tier.
func ClearCache(d *DynSum) {
	v, t := d.cache, d.cache.tier
	for i := range t.stripes {
		t.stripes[i].mu.Lock()
	}
	t.store.reset()
	for i := range t.stripes {
		s := &t.stripes[i]
		clear(s.keys)
		clear(s.recs)
		s.n, s.entries = 0, s.entries[:0]
		clear(v.bits[i])
		s.mu.Unlock()
	}
	v.visible.Store(0)
	v.priv.clear()
}

// CacheEntry is an opaque captured cache entry (see SnapshotMethod).
type CacheEntry struct {
	key pptaState
	sum Summary
}

// SnapshotMethod captures every cache entry whose key node lies in method
// m, walking the whole cache (node methods come from the engine's current
// view, delta-added nodes included).
func SnapshotMethod(d *DynSum, m pag.MethodID) []CacheEntry {
	gv := graphView{g: d.g, ov: d.ov}
	var out []CacheEntry
	d.cache.each(func(k pptaState, sum Summary) {
		if gv.nodeMethod(k.node) == m {
			out = append(out, CacheEntry{key: k, sum: sum})
		}
	})
	return out
}

// RestoreEntries re-inserts entries captured by SnapshotMethod, for
// benchmarks that must leave the cache as they found it between
// iterations. The restored results re-share their original records.
func RestoreEntries(d *DynSum, entries []CacheEntry) {
	for _, e := range entries {
		d.cache.put(e.key, e.sum.Objects, e.sum.Frontier, d.clean())
	}
}
