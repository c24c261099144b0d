package core

import (
	"fmt"
	"sort"

	"dynsum/internal/pag"
)

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

// MethodIndexSize returns the number of keys recorded in the per-method
// invalidation index (duplicates included), for index-hygiene assertions.
func MethodIndexSize(d *DynSum) int {
	n := 0
	for i := range d.cache.methods {
		ms := &d.cache.methods[i]
		ms.mu.Lock()
		for _, pks := range ms.m {
			n += len(pks)
		}
		ms.mu.Unlock()
	}
	return n
}

// CacheEntry is an opaque captured cache entry (see SnapshotMethod).
type CacheEntry struct {
	key pptaState
	sum Summary
}

// SnapshotMethod captures every cache entry belonging to method m, walking
// the method's index list (duplicate and stale index keys are skipped).
func SnapshotMethod(d *DynSum, m pag.MethodID) []CacheEntry {
	ms := d.cache.methodShard(m)
	ms.mu.Lock()
	pks := append([]uint64(nil), ms.m[m]...)
	ms.mu.Unlock()
	var out []CacheEntry
	seen := make(map[uint64]bool, len(pks))
	for _, pk := range pks {
		if seen[pk] {
			continue
		}
		seen[pk] = true
		k := unpackKey(pk)
		if sum, ok := d.cache.get(k); ok {
			out = append(out, CacheEntry{key: k, sum: sum})
		}
	}
	return out
}

// RestoreMethod re-inserts entries captured by SnapshotMethod, for
// benchmarks that must leave the cache as they found it between
// iterations. The method's index list is dropped first, so restoring over
// a method that was not invalidated does not grow it by a duplicate set.
// The restored results re-share their original records.
func RestoreMethod(d *DynSum, m pag.MethodID, entries []CacheEntry) {
	ms := d.cache.methodShard(m)
	ms.mu.Lock()
	delete(ms.m, m)
	ms.mu.Unlock()
	for _, e := range entries {
		d.cache.put(e.key, m, e.sum.Objects, e.sum.Frontier)
	}
}
