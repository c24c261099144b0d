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
//   - private cache keys name nodes inside the current view's ID space (so
//     the node bitset invalidation scans with covers every key), sit
//     in the stripe their hash picks, and name a filed record; each
//     stripe's count matches the keys it holds
//   - tier keys name nodes of the tier's graph and sit in the stripe their
//     hash picks; each stripe's slots hold every entry number below its
//     entry count exactly once, and every entry names a filed record
//   - the engine's visibility bits name existing tier entries, their count
//     matches the visible total, and no key is both visible in the tier
//     and private
//   - in both record stores, every record's object and frontier ranges lie
//     inside one allocated segment of their arena, and every hash-consing
//     entry names a filed record whose contents still hash to the key it
//     is filed under
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
	v := d.cache
	c := &v.priv
	st := &c.store
	st.mu.Lock()
	nrecs := st.recs.n
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		live := 0
		for j, sk := range s.keys {
			if sk == 0 {
				continue
			}
			live++
			pk := sk - 1
			k := unpackKey(pk)
			if got, _ := c.stripe(pk); got != s {
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
	checkStore("cache", st, report)
	st.mu.Unlock()

	t := v.tier
	tst := &t.store
	tst.mu.Lock()
	defer tst.mu.Unlock()
	nrecs = tst.recs.n
	visible := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		seen := newBitset(len(s.entries))
		live := 0
		for j, sk := range s.keys {
			if sk == 0 {
				continue
			}
			live++
			pk := sk - 1
			k := unpackKey(pk)
			if got, _, _ := t.stripe(pk); got != s {
				report("tier: key %#x filed in stripe %d, hashes elsewhere", pk, i)
			}
			if int(k.node) < 0 || int(k.node) >= t.g.NumNodes() {
				report("tier: entry key node %d outside the view's %d nodes", k.node, t.g.NumNodes())
			}
			id := s.recs[j]
			if int(id) >= len(s.entries) || seen.has(uint64(id)) {
				report("tier: stripe %d slot %d holds entry %d (of %d) twice or out of range", i, j, id, len(s.entries))
				continue
			}
			seen.add(int(id))
			if s.entries[id] >= nrecs {
				report("tier: key %#x names record %d of %d", pk, s.entries[id], nrecs)
			}
			if v.has(i, id) {
				ps, h := c.stripe(pk)
				ps.mu.RLock()
				_, ok := ps.find(sk, h)
				ps.mu.RUnlock()
				if ok {
					report("tier: key %#x is both visible and private", pk)
				}
			}
		}
		if live != len(s.entries) || live != s.n {
			report("tier: stripe %d counts %d entries (%d keys), holds %d", i, len(s.entries), s.n, live)
		}
		for id := len(s.entries); id < len(v.bits[i])*64; id++ {
			if v.has(i, uint32(id)) {
				report("tier: stripe %d sees entry %d of %d", i, id, len(s.entries))
				break
			}
		}
		visible += v.popcount(i)
		s.mu.RUnlock()
	}
	if got := v.visible.Load(); got != int64(visible) {
		report("tier: view counts %d visible entries, its bits hold %d", got, visible)
	}
	checkStore("tier", tst, report)

	return errors.Join(errs...)
}

// checkStore verifies a record store's arena bounds and hash-consing
// table. The caller holds st.mu.
func checkStore(name string, st *resultStore, report func(string, ...any)) {
	nrecs := st.recs.n
	for r := uint32(0); r < nrecs; r++ {
		rec := st.recs.at(r)
		if !st.objs.inRange(rec.objOff, rec.objLen) {
			report("%s: record %d objects [%d,+%d) outside the arena (%d used)", name, r, rec.objOff, rec.objLen, st.objs.n)
		}
		if !st.frs.inRange(rec.frOff, rec.frLen) {
			report("%s: record %d frontier [%d,+%d) outside the arena (%d used)", name, r, rec.frOff, rec.frLen, st.frs.n)
		}
	}

	// Hash-consing table: every entry re-hashes to its filing key.
	for i, h := range st.dhash {
		if h == 0 {
			continue
		}
		r := st.drec[i]
		if r >= nrecs {
			report("%s intern: hash %#x names record %d of %d", name, h, r, nrecs)
			continue
		}
		rec := st.recs.at(r)
		if !st.objs.inRange(rec.objOff, rec.objLen) || !st.frs.inRange(rec.frOff, rec.frLen) {
			continue // reported above
		}
		v := st.view(r)
		if got := hashResult(v.Objects, v.Frontier); got != h {
			report("%s intern: record %d filed under %#x hashes to %#x — record contents mutated?", name, r, h, got)
		}
	}
}
