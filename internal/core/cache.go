package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file implements the concurrent summary cache layout: a map from
// PPTA start states to cached results, laid out so that nothing the cache
// holds per entry contains a pointer. An engine's private table is a
// summaryCache as described here; the summary tier engines share
// (tier.go) reuses its hashing, record store and arenas. Cached summaries live for the
// engine's lifetime (the paper's reuse argument, Alg. 4), so their per-entry
// footprint sets a serving daemon's heap, and every pointer-bearing entry is
// one more word for the garbage collector to mark on every cycle.
//
// Three layers, all pointer-free apart from a few dozen segment headers:
//
//   - Keys. A pptaState packs into one uint64 (pkey: node 32 bits, field
//     stack 31 bits with ⊤ remapped so it cannot alias, state 1 bit). Each
//     of summaryShards stripes holds an open-addressing table of packed
//     keys (linear probing, backward-shift delete) mapping each key to a
//     uint32 record index. Striping keeps batch workers from serialising on
//     one lock: a key's stripe is picked by the top bits of its hash.
//   - Records. A record is the four-word {objOff, objLen, frOff, frLen}
//     description of one result. Records are hash-consed: structurally
//     equal (objects, frontier) pairs share one record, so the thousands of
//     keys whose closures coincide (library methods reached under different
//     field stacks, SCC-heavy graphs funnelling into one closure, the many
//     one-object results) cost one table slot each and nothing more.
//   - Arenas. Records, objects and frontier states live in append-only
//     arenas of geometrically growing segments. A segment, once allocated,
//     never moves, so a cache hit hands the driver read-only slice views
//     straight into the arena — no copy, no allocation.
//
// Concurrency. Each stripe has an RWMutex; readers (get) resolve a key to
// its views under the stripe's read lock. Writers first file their results
// in the store under the store's mutex, then publish keys under the stripe
// write locks, so a record and its arena ranges are fully written before
// any reader can reach them (the stripe lock carries the happens-before
// edge); readers never touch the store's mutex. Two workers that miss on
// the same key may both run the PPTA; the computation is deterministic up
// to element order, so whichever insert lands last overwrites a
// set-identical value.
//
// Lifetime. Arena space is reclaimed only wholesale: deleteNodes removes
// keys but leaves their records (a later identical result re-shares them),
// and clear (Compact) drops every segment.
// Per-method invalidation is rare and small (an evolving program
// invalidates a few entries per edit), so the stranded records are a
// bounded cost until the next Compact.
//
// Invalidation keeps no index. A key's method is its node's method (and
// never changes — condensed keys are SCC representatives, and assign SCCs
// never cross methods), so InvalidateMethod and ApplyDelta turn the
// touched methods into one node bitset and drop the matching keys in one
// pass over the stripe tables: a bit test per slot, once per epoch,
// instead of an index every write-back would have to extend.

// summaryShardBits sets the stripe count; summaryShards is a power of two
// so the stripe pick is a shift, sized well above any realistic worker
// count.
const (
	summaryShardBits = 6
	summaryShards    = 1 << summaryShardBits
)

// summaryCache is the striped key table and the record store it shares.
type summaryCache struct {
	stripes [summaryShards]cacheStripe
	store   resultStore
}

// cacheStripe is one stripe of the key table: an open-addressing table of
// packed keys (stored as key+1, so 0 marks an empty slot — a packed key's
// top bit is always clear, so the increment cannot overflow) and the
// record index of each. Tables are allocated on first insert, so a
// short-lived engine pays nothing for stripes it never touches.
type cacheStripe struct {
	mu   sync.RWMutex
	keys []uint64
	recs []uint32
	n    int
}

// unpackKey inverts pkey.
func unpackKey(k uint64) pptaState {
	fs := intstack.ID(k >> 1 & 0x7FFFFFFF)
	if fs == 0x7FFFFFFF {
		fs = intstack.Wild
	}
	return pptaState{node: pag.NodeID(k >> 32), fs: fs, st: State(k & 1)}
}

// stripe returns the stripe owning packed key k and k's hash, which also
// picks its home slot.
func (c *summaryCache) stripe(k uint64) (*cacheStripe, uint64) {
	h := keyHash(k)
	return &c.stripes[h>>(64-summaryShardBits)], h
}

// keyHash spreads a packed key. The product's high half depends on every
// key bit; folding it into the low half makes the home slot depend on the
// node as well as on the stack and state, while the top bits (the stripe
// pick) stay the product's.
func keyHash(k uint64) uint64 {
	h := k * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// find returns the slot holding stored key sk (packed key + 1), whose hash
// is h.
func (s *cacheStripe) find(sk, h uint64) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	mask := uint64(len(s.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.keys[i] {
		case sk:
			return int(i), true
		case 0:
			return 0, false
		}
	}
}

// set maps stored key sk to rec, reporting whether the key was new. The
// table doubles at 3/4 load.
func (s *cacheStripe) set(sk, h uint64, rec uint32) bool {
	if (s.n+1)*4 > len(s.keys)*3 {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.keys[i] {
		case sk:
			s.recs[i] = rec
			return false
		case 0:
			s.keys[i], s.recs[i] = sk, rec
			s.n++
			return true
		}
	}
}

func (s *cacheStripe) grow() {
	keys, recs := s.keys, s.recs
	n := 2 * len(keys)
	if n == 0 {
		n = 16
	}
	s.keys, s.recs = make([]uint64, n), make([]uint32, n)
	mask := uint64(n - 1)
	for i, sk := range keys {
		if sk == 0 {
			continue
		}
		j := keyHash(sk-1) & mask
		for s.keys[j] != 0 {
			j = (j + 1) & mask
		}
		s.keys[j], s.recs[j] = sk, recs[i]
	}
}

// remove deletes stored key sk, closing the gap by backward shifting: each
// later entry of the probe run moves into the hole unless its home slot
// lies cyclically after the hole, so no tombstones accumulate and lookups
// stay as short as a fresh table's.
func (s *cacheStripe) remove(sk, h uint64) bool {
	i, ok := s.find(sk, h)
	if !ok {
		return false
	}
	mask := len(s.keys) - 1
	for j := (i + 1) & mask; s.keys[j] != 0; j = (j + 1) & mask {
		home := int(keyHash(s.keys[j]-1) & uint64(mask))
		if (j-home)&mask >= (j-i)&mask {
			s.keys[i], s.recs[i] = s.keys[j], s.recs[j]
			i = j
		}
	}
	s.keys[i], s.recs[i] = 0, 0
	s.n--
	return true
}

// get returns read-only views of the result cached for k. The views point
// into arena segments that never move, so they stay valid after the stripe
// lock is released (even across a concurrent clear, which only drops the
// cache's references to the segments).
func (c *summaryCache) get(k pptaState) (Summary, bool) {
	pk := pkey(k)
	s, h := c.stripe(pk)
	s.mu.RLock()
	i, ok := s.find(pk+1, h)
	var sum Summary
	if ok {
		sum = c.store.view(s.recs[i])
	}
	s.mu.RUnlock()
	return sum, ok
}

// put files one result and inserts it under k. Imports and test hooks use
// it; write-backs batch through putBatch directly.
func (c *summaryCache) put(k pptaState, objs []pag.NodeID, frs []FrontierState) {
	rec, gen := c.store.file(objs, frs)
	c.putBatch([]pptaState{k}, []uint32{rec}, gen)
}

// putBatch inserts the write-back set of one completed PPTA run: keys[i]
// maps to record recs[i]; the records were filed in the store at
// generation gen. It returns how many keys were genuinely new; overwrites
// of entries another worker landed first are not counted.
//
// A clear that ran after the records were filed invalidated them; the
// generation check under each stripe lock drops such stale inserts, so a
// key can never name a record of a dropped store.
func (c *summaryCache) putBatch(keys []pptaState, recs []uint32, gen uint64) int {
	fresh := 0
	for i, k := range keys {
		faultinject.Fire(faultinject.CachePutBatch)
		pk := pkey(k)
		s, h := c.stripe(pk)
		s.mu.Lock()
		if c.store.gen != gen {
			s.mu.Unlock()
			break
		}
		if s.set(pk+1, h, recs[i]) {
			fresh++
		}
		s.mu.Unlock()
	}
	return fresh
}

// size returns the total number of cached summaries across stripes.
func (c *summaryCache) size() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// clear drops every entry and every arena segment. The key tables keep
// their slot arrays (zeroed), so a re-warmed engine does not pay for them
// twice; the arenas are released, which is where invalidated entries'
// space is reclaimed. Everything is reset under every stripe lock, so
// readers stay memory-safe. It is still not an exact invalidation
// barrier: an in-flight query that missed before the clear may insert its
// summary afterwards (unless its records predate the clear — the
// generation check drops those) — hence DynSum documents that callers
// must quiesce the engine before invalidating.
func (c *summaryCache) clear() {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	c.store.reset()
	for i := range c.stripes {
		s := &c.stripes[i]
		clear(s.keys)
		clear(s.recs)
		s.n = 0
		s.mu.Unlock()
	}
}

// deleteNodes removes every entry whose key node is in nodes and returns
// how many it removed. Each stripe is scanned once under its write lock:
// its victims are collected first and removed afterwards, because a
// backward-shift remove moves later entries of the probe run into the
// hole, so removing while scanning could step over one. An empty slot
// unpacks to node 2^32-1, which nodes.has rejects like any node past the
// set, so the loop's only branch is the rarely taken victim test.
func (c *summaryCache) deleteNodes(nodes bitset) int {
	dropped := 0
	var victims []uint64
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		victims = victims[:0]
		if s.n > 0 {
			for _, sk := range s.keys {
				if nodes.has((sk - 1) >> 32) {
					victims = append(victims, sk)
				}
			}
			for _, sk := range victims {
				s.remove(sk, keyHash(sk-1))
			}
		}
		s.mu.Unlock()
		dropped += len(victims)
	}
	return dropped
}

// bitset is a set of non-negative integers below the size it was made
// for. Its length is a power of two with at least one zero word past the
// range, so has can mask the word index instead of branching on it: any
// value past the range — an empty slot's all-ones node field among them —
// lands on a zero word or fails the exact range test that follows a hit.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, 1<<bits.Len(uint((n+63)/64))) }

func (b bitset) add(i int) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) has(i uint64) bool {
	w := i >> 6
	return b[w&uint64(len(b)-1)]&(1<<(i&63)) != 0 && w < uint64(len(b))
}

// each calls fn for every live entry, stripe by stripe under the read
// locks. fn must not call back into the cache.
func (c *summaryCache) each(fn func(k pptaState, sum Summary)) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		for j, sk := range s.keys {
			if sk != 0 {
				fn(unpackKey(sk-1), c.store.view(s.recs[j]))
			}
		}
		s.mu.RUnlock()
	}
}

// resultRecord locates one cached result in the store's arenas.
type resultRecord struct {
	objOff, objLen uint32
	frOff, frLen   uint32
}

// resultStore holds the deduplicated result records and their payload
// arenas, plus the hash-consing table that files each record under the
// content hash of its (objects, frontier) pair. Writers serialise on mu;
// readers resolve records without it (see the file comment).
type resultStore struct {
	mu   sync.Mutex
	recs arena[resultRecord]
	objs arena[pag.NodeID]
	frs  arena[FrontierState]

	// The hash-consing table: open addressing over content hashes (never
	// 0, so 0 marks an empty slot) with the record filed under each.
	// Equal hashes probe on, so a collision never loses a dedup.
	dhash []uint64
	drec  []uint32
	dn    int

	// gen counts resets. It is written by clear with every stripe lock and
	// mu held, so reading it under either kind of lock is race-free.
	gen uint64

	// shared counts results answered with an existing record; unique
	// counts records filed. Their sum is the number of results interned.
	shared, unique atomic.Int64
}

// intern returns the record holding (objs, frs), filing a new one when no
// equal record exists. Callers hold st.mu.
func (st *resultStore) intern(objs []pag.NodeID, frs []FrontierState) uint32 {
	h := hashResult(objs, frs)
	if (st.dn+1)*4 > len(st.dhash)*3 {
		st.growDedup()
	}
	mask := uint64(len(st.dhash) - 1)
	i := keyHash(h) & mask
	for ; st.dhash[i] != 0; i = (i + 1) & mask {
		if st.dhash[i] == h {
			if v := st.view(st.drec[i]); slices.Equal(v.Objects, objs) && slices.Equal(v.Frontier, frs) {
				st.shared.Add(1)
				return st.drec[i]
			}
		}
	}
	var rec resultRecord
	if len(objs) > 0 {
		off, dst := st.objs.alloc(len(objs))
		copy(dst, objs)
		rec.objOff, rec.objLen = off, uint32(len(objs))
	}
	if len(frs) > 0 {
		off, dst := st.frs.alloc(len(frs))
		copy(dst, frs)
		rec.frOff, rec.frLen = off, uint32(len(frs))
	}
	r, dst := st.recs.alloc(1)
	dst[0] = rec
	st.dhash[i], st.drec[i] = h, r
	st.dn++
	st.unique.Add(1)
	return r
}

// file interns one result under the store lock, returning its record and
// the generation it was filed in.
func (st *resultStore) file(objs []pag.NodeID, frs []FrontierState) (uint32, uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.intern(objs, frs), st.gen
}

// internPending files the distinct results of sc's pending write-backs,
// filling sc.pendRec parallel to sc.pendKeys, and returns the store
// generation they were filed in (for putBatch).
func (st *resultStore) internPending(sc *Scratch) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	sc.pendRec = sc.pendRec[:0]
	prev, rec := int32(-1), uint32(0)
	for _, r := range sc.pendRIdx {
		if r != prev {
			prev = r
			objs, frs := sc.resultViews(r)
			rec = st.intern(objs, frs)
		}
		sc.pendRec = append(sc.pendRec, rec)
	}
	return st.gen
}

func (st *resultStore) growDedup() {
	hs, rs := st.dhash, st.drec
	n := 2 * len(hs)
	if n == 0 {
		n = 64
	}
	st.dhash, st.drec = make([]uint64, n), make([]uint32, n)
	mask := uint64(n - 1)
	for i, h := range hs {
		if h == 0 {
			continue
		}
		j := keyHash(h) & mask
		for st.dhash[j] != 0 {
			j = (j + 1) & mask
		}
		st.dhash[j], st.drec[j] = h, rs[i]
	}
}

// view resolves record r into read-only arena views; empty halves are nil.
func (st *resultStore) view(r uint32) Summary {
	rec := st.recs.at(r)
	return Summary{
		Objects:  st.objs.slice(rec.objOff, rec.objLen),
		Frontier: st.frs.slice(rec.frOff, rec.frLen),
	}
}

// bytes returns the heap the store holds: arena segments and the
// hash-consing table.
func (st *resultStore) bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recs.bytes() + st.objs.bytes() + st.frs.bytes() + int64(cap(st.dhash))*8 + int64(cap(st.drec))*4
}

// reset drops every record and segment and advances the generation.
// Callers hold every stripe lock; reset takes mu itself.
func (st *resultStore) reset() {
	st.mu.Lock()
	st.recs, st.objs, st.frs = arena[resultRecord]{}, arena[pag.NodeID]{}, arena[FrontierState]{}
	clear(st.dhash)
	clear(st.drec)
	st.dn = 0
	st.gen++
	st.mu.Unlock()
}

// Arena geometry: with B = 1<<arenaBaseBits, segment s holds B<<s
// elements and starts at global offset B*(2^s-1), so an offset's segment
// is one bit scan away and arenaSegs segments cover the uint32 offset
// space.
const (
	arenaBaseBits = 6
	arenaSegs     = 32 - arenaBaseBits
)

// arena is an append-only array of T in geometrically growing segments.
// Elements never move: a segment is allocated whole, written only in the
// ranges handed out by alloc, and dropped only by replacing the arena.
// Only the fixed-size segment directory holds pointers.
type arena[T any] struct {
	segs [arenaSegs][]T
	n    uint32 // global offset of the next allocation
}

func segStart(s int) uint32 { return (1<<s - 1) << arenaBaseBits }

// segOf maps a global offset to its segment and position in it.
func segOf(off uint32) (s int, pos uint32) {
	s = bits.Len32(off>>arenaBaseBits+1) - 1
	return s, off - segStart(s)
}

// alloc reserves a run of n > 0 contiguous elements and returns its
// global offset and a writable view. A run never straddles segments: when
// it does not fit in the current segment's tail, the tail is skipped
// (segments double, so the waste is bounded by the run length).
func (a *arena[T]) alloc(n int) (uint32, []T) {
	for {
		s, pos := segOf(a.n)
		size := uint64(1) << (s + arenaBaseBits)
		if uint64(pos)+uint64(n) <= size {
			if a.segs[s] == nil {
				a.segs[s] = make([]T, size)
			}
			off := a.n
			a.n += uint32(n)
			return off, a.segs[s][pos : int(pos)+n : int(pos)+n]
		}
		if s+1 >= arenaSegs {
			panic("core: summary arena exhausted")
		}
		a.n = segStart(s + 1)
	}
}

// slice returns the read-only view of the n elements at global offset
// off; nil when n is 0.
func (a *arena[T]) slice(off, n uint32) []T {
	if n == 0 {
		return nil
	}
	s, pos := segOf(off)
	return a.segs[s][pos : pos+n : pos+n]
}

// bytes returns the size of the allocated segments.
func (a *arena[T]) bytes() int64 {
	var zero T
	var n int64
	for _, seg := range a.segs {
		n += int64(cap(seg))
	}
	return n * int64(unsafe.Sizeof(zero))
}

func (a *arena[T]) at(off uint32) T {
	s, pos := segOf(off)
	return a.segs[s][pos]
}

// inRange reports whether [off, off+n) lies inside one allocated segment
// below the allocation cursor — the bounds invariant CheckIntegrity
// verifies for every record.
func (a *arena[T]) inRange(off, n uint32) bool {
	if n == 0 {
		return true
	}
	if uint64(off)+uint64(n) > uint64(a.n) {
		return false
	}
	s, pos := segOf(off)
	return uint64(pos)+uint64(n) <= uint64(len(a.segs[s]))
}

// fnv-1a over 64-bit words; the result halves feed their elements through
// it word-wise.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvWord(h, w uint64) uint64 {
	h ^= w & 0xffffffff
	h *= fnvPrime
	h ^= w >> 32
	h *= fnvPrime
	return h
}

// hashResult is the hash-consing key of an (objects, frontier) pair. The
// low bit is forced so no hash is 0, the table's empty marker.
func hashResult(objs []pag.NodeID, frs []FrontierState) uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(len(objs))<<32|uint64(len(frs)))
	for _, n := range objs {
		h = fnvWord(h, uint64(uint32(n)))
	}
	for _, f := range frs {
		h = fnvWord(h, fkey(f))
	}
	return h | 1
}
