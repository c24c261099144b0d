package core

import (
	"errors"
	"fmt"
)

// This file exposes the summary-cache and intern-table integrity checks
// to internal/check (check.Cache delegates here): the invariants live on
// unexported structures, so the audit has to run inside the package. The
// checks take the shard locks stripe by stripe and are meant for
// quiesced engines — tests, fuzz targets, tools — not for concurrent use
// on a live batch.

// checkMaxViolations caps the collected violations, mirroring
// internal/check's cap.
const checkMaxViolations = 20

// CheckIntegrity verifies the engine's cache-layer invariants:
//
//   - cache keys name nodes inside the current view's ID space (so the
//     node bitset InvalidateMethod scans with covers every key), sit in
//     the stripe their hash picks, and name a filed record; each stripe's
//     count matches the keys it holds
//   - every record's object and frontier ranges lie inside one allocated
//     segment of their arena
//   - every hash-consing entry names a filed record whose contents still
//     hash to the key it is filed under
//
// It returns nil when healthy, or the joined violations.
func (d *DynSum) CheckIntegrity() error {
	var errs []error
	report := func(format string, args ...any) {
		if len(errs) < checkMaxViolations {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	numNodes := d.g.NumNodes()
	if d.ov != nil {
		numNodes = d.ov.NumNodes()
	}
	st := &d.cache.store
	st.mu.Lock()
	defer st.mu.Unlock()
	nrecs := st.recs.n

	for i := range d.cache.stripes {
		s := &d.cache.stripes[i]
		s.mu.RLock()
		live := 0
		for j, sk := range s.keys {
			if sk == 0 {
				continue
			}
			live++
			pk := sk - 1
			k := unpackKey(pk)
			if got, _ := d.cache.stripe(pk); got != s {
				report("cache: key %#x filed in stripe %d, hashes elsewhere", pk, i)
			}
			if s.recs[j] >= nrecs {
				report("cache: key %#x names record %d of %d", pk, s.recs[j], nrecs)
			}
			if int(k.node) < 0 || int(k.node) >= numNodes {
				report("cache: entry key node %d outside the view's %d nodes", k.node, numNodes)
			}
		}
		if live != s.n {
			report("cache: stripe %d counts %d entries, holds %d", i, s.n, live)
		}
		s.mu.RUnlock()
	}

	for r := uint32(0); r < nrecs; r++ {
		rec := st.recs.at(r)
		if !st.objs.inRange(rec.objOff, rec.objLen) {
			report("cache: record %d objects [%d,+%d) outside the arena (%d used)", r, rec.objOff, rec.objLen, st.objs.n)
		}
		if !st.frs.inRange(rec.frOff, rec.frLen) {
			report("cache: record %d frontier [%d,+%d) outside the arena (%d used)", r, rec.frOff, rec.frLen, st.frs.n)
		}
	}

	// Hash-consing table: every entry re-hashes to its filing key.
	for i, h := range st.dhash {
		if h == 0 {
			continue
		}
		r := st.drec[i]
		if r >= nrecs {
			report("intern: hash %#x names record %d of %d", h, r, nrecs)
			continue
		}
		rec := st.recs.at(r)
		if !st.objs.inRange(rec.objOff, rec.objLen) || !st.frs.inRange(rec.frOff, rec.frLen) {
			continue // reported above
		}
		v := st.view(r)
		if got := hashResult(v.Objects, v.Frontier); got != h {
			report("intern: record %d filed under %#x hashes to %#x — record contents mutated?", r, h, got)
		}
	}

	return errors.Join(errs...)
}
