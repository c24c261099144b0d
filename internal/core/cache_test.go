package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file checks the summary cache against a reference
// map[pptaState]Summary: random put/putBatch/get/invalidate/clear
// sequences (a table test and FuzzSummaryCache), the table mechanics the
// sequences cannot force on their own (growth, backward-shift deletes
// across the wraparound, ⊤ keys), concurrent readers and writers, and the
// memory layout the cache exists for.

// cacheModel drives a summary cache and a reference map side by side.
type cacheModel struct {
	t     testing.TB
	d     *DynSum
	nodes int
	ref   map[pptaState]Summary
}

func newCacheModel(t testing.TB) *cacheModel {
	p := fixture.RandProgram(3, fixture.RandConfig{Methods: 12}.Defaults())
	p.G.Freeze()
	m := &cacheModel{t: t, d: NewDynSum(p.G, Config{}, nil), ref: map[pptaState]Summary{}}
	m.nodes = min(p.G.NumNodes(), 256)
	return m
}

// modelStacks is the field-stack universe: the empty stack, a few
// concrete IDs and ⊤, so (n, ⊤) sits next to (n+1, Empty) in key space.
var modelStacks = []intstack.ID{intstack.Empty, 1, 2, 3, 5, 6, 7, intstack.Wild}

func (m *cacheModel) key(a, b byte) pptaState {
	return pptaState{
		node: pag.NodeID(int(a) % m.nodes),
		fs:   modelStacks[b%8],
		st:   State(b >> 3 & 1),
	}
}

func (m *cacheModel) method(k pptaState) pag.MethodID { return m.d.g.Node(k.node).Method }

// modelResult derives a small result from b; many bytes map to equal
// results (every empty one, for instance), so the hash-consing path is
// exercised too.
func modelResult(b byte) Summary {
	var s Summary
	for i := 0; i < int(b%4); i++ {
		s.Objects = append(s.Objects, pag.NodeID(int(b)%7+i))
	}
	for i := 0; i < int(b/4%3); i++ {
		fs := intstack.ID(i)
		if b&0x10 != 0 {
			fs = intstack.Wild
		}
		s.Frontier = append(s.Frontier, FrontierState{Node: pag.NodeID(int(b)%5 + i), Fs: fs, St: State(i & 1)})
	}
	return s
}

// apply runs one operation decoded from op and args (three bytes).
func (m *cacheModel) apply(op, a, b, c byte) {
	cache := m.d.cache
	switch op % 8 {
	case 0, 1: // put
		k, r := m.key(a, b), modelResult(c)
		cache.put(k, r.Objects, r.Frontier)
		m.ref[k] = r
	case 2: // putBatch: a run of keys, as a write-back (a key may recur)
		var keys []pptaState
		var recs []uint32
		var gen uint64
		fresh := 0
		for i := 0; i < int(c%6)+1; i++ {
			k := m.key(a+byte(i), b+byte(3*i))
			r := modelResult(c + byte(i))
			rec, g := cache.store.file(r.Objects, r.Frontier)
			keys, recs, gen = append(keys, k), append(recs, rec), g
			if _, ok := m.ref[k]; !ok {
				fresh++
			}
			m.ref[k] = r
		}
		if got := cache.putBatch(keys, recs, gen); got != fresh {
			m.t.Fatalf("putBatch reported %d fresh keys, %d were new", got, fresh)
		}
	case 3, 4, 5: // get
		m.check(m.key(a, b))
	case 6: // invalidate one method through the stripe scan
		meth := m.method(m.key(a, b))
		want := 0
		for k := range m.ref {
			if m.method(k) == meth {
				delete(m.ref, k)
				want++
			}
		}
		if got := m.d.InvalidateMethod(meth); got != want {
			m.t.Fatalf("InvalidateMethod(%d) dropped %d entries, reference holds %d", meth, got, want)
		}
	case 7: // clear, rarely
		if a%4 == 0 {
			cache.clear()
			clear(m.ref)
		} else {
			m.check(m.key(a, b))
		}
	}
}

func (m *cacheModel) check(k pptaState) {
	got, ok := m.d.cache.get(k)
	want, wok := m.ref[k]
	if ok != wok {
		m.t.Fatalf("get(%+v) present=%v, reference present=%v", k, ok, wok)
	}
	if ok && (!slices.Equal(got.Objects, want.Objects) || !slices.Equal(got.Frontier, want.Frontier)) {
		m.t.Fatalf("get(%+v) = %v, reference %v", k, got, want)
	}
}

// verify checks the whole cache against the reference, plus the
// structural invariants.
func (m *cacheModel) verify() {
	if got := m.d.SummaryCount(); got != len(m.ref) {
		m.t.Fatalf("cache holds %d entries, reference %d", got, len(m.ref))
	}
	for k := range m.ref {
		m.check(k)
	}
	if err := m.d.CheckIntegrity(); err != nil {
		m.t.Fatalf("CheckIntegrity: %v", err)
	}
}

// FuzzSummaryCache decodes data as 4-byte operations (see apply).
func FuzzSummaryCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 3, 1, 2, 0})
	f.Add([]byte{2, 9, 7, 5, 6, 9, 7, 0, 3, 9, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newCacheModel(t)
		for i := 0; i+3 < len(data); i += 4 {
			m.apply(data[i], data[i+1], data[i+2], data[i+3])
		}
		m.verify()
	})
}

// TestSummaryCacheDifferential runs long random operation sequences —
// enough distinct keys to grow most stripes several times — against the
// reference map.
func TestSummaryCacheDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*3000)
		rng.Read(data)
		m := newCacheModel(t)
		grew := false
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i]
			if seed%2 == 0 && op%8 >= 6 && i%64 != 0 {
				op = 0 // even seeds rarely invalidate, so tables keep growing
			}
			m.apply(op, data[i+1], data[i+2], data[i+3])
			if i%400 == 0 {
				m.verify()
			}
			for j := range m.d.cache.stripes {
				grew = grew || len(m.d.cache.stripes[j].keys) > 16
			}
		}
		m.verify()
		if seed%2 == 0 && !grew {
			t.Errorf("seed %d: no stripe ever grew past its first table", seed)
		}
	}
}

// TestSummaryCacheWildKeys: ⊤ keys pack apart from their neighbours —
// (n, ⊤) must never alias (n+1, Empty), in either state.
func TestSummaryCacheWildKeys(t *testing.T) {
	m := newCacheModel(t)
	for n := 0; n+1 < m.nodes; n++ {
		for _, st := range []State{S1, S2} {
			w := pptaState{node: pag.NodeID(n), fs: intstack.Wild, st: st}
			e := pptaState{node: pag.NodeID(n + 1), fs: intstack.Empty, st: st}
			if pkey(w) == pkey(e) {
				t.Fatalf("pkey(%+v) == pkey(%+v)", w, e)
			}
			if got := unpackKey(pkey(w)); got != w {
				t.Fatalf("unpackKey(pkey(%+v)) = %+v", w, got)
			}
			r := modelResult(byte(n))
			m.d.cache.put(w, r.Objects, r.Frontier)
			m.ref[w] = r
			m.check(e)
		}
	}
	m.verify()
}

// TestCacheStripeWraparound: keys whose home slots are the table's last
// two wrap to the front; deleting them in every order must backward-shift
// across the wraparound and leave every survivor findable.
func TestCacheStripeWraparound(t *testing.T) {
	const size = 16
	var keys []uint64
	for pk := uint64(0); len(keys) < 8; pk++ {
		if keyHash(pk)&(size-1) >= size-2 {
			keys = append(keys, pk)
		}
	}
	orders := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1, 0}, {0, 2, 4, 6, 1, 3, 5, 7}, {3, 0, 6, 1, 7, 2, 5, 4}}
	for _, order := range orders {
		var s cacheStripe
		s.grow()
		for i, pk := range keys {
			s.set(pk+1, keyHash(pk), uint32(i))
		}
		if len(s.keys) != size {
			t.Fatalf("table grew to %d slots; the test needs %d", len(s.keys), size)
		}
		if s.keys[0] == 0 || s.keys[1] == 0 {
			t.Fatal("no key wrapped to the front of the table")
		}
		live := map[int]bool{}
		for i := range keys {
			live[i] = true
		}
		for _, del := range order {
			if !s.remove(keys[del]+1, keyHash(keys[del])) {
				t.Fatalf("order %v: key %d not found for removal", order, del)
			}
			delete(live, del)
			for i, pk := range keys {
				slot, ok := s.find(pk+1, keyHash(pk))
				if ok != live[i] || (ok && s.recs[slot] != uint32(i)) {
					t.Fatalf("order %v after removing %d: key %d found=%v (want %v)", order, del, i, ok, live[i])
				}
			}
			if s.n != len(live) {
				t.Fatalf("order %v: stripe counts %d, %d live", order, s.n, len(live))
			}
		}
	}
}

// TestSummaryCacheConcurrent runs readers against writers and clears,
// then against invalidation scans, then against writers and scans
// together; every hit must carry exactly its key's result, and the
// quiesced cache must pass CheckIntegrity. Without a method index a scan
// racing a writer cannot strand an entry: it either removes a key or
// leaves it for the next scan, which the final exactness check confirms.
// Meant for -race (CI runs it with -count=10).
func TestSummaryCacheConcurrent(t *testing.T) {
	m := newCacheModel(t)
	c := m.d.cache
	keyOf := func(i int) pptaState { return m.key(byte(i), byte(i/7)) }
	resultOf := func(k pptaState) Summary { return modelResult(byte(int(k.node)*3 + int(k.fs) + int(k.st))) }
	read := func(wg *sync.WaitGroup, r int) {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			k := keyOf(i + r)
			if got, ok := c.get(k); ok {
				want := resultOf(k)
				if !slices.Equal(got.Objects, want.Objects) || !slices.Equal(got.Frontier, want.Frontier) {
					t.Errorf("get(%+v) = %v, want %v", k, got, want)
					return
				}
			}
		}
	}
	write := func(wg *sync.WaitGroup, w int) {
		defer wg.Done()
		for i := 0; i < 600; i++ {
			k := keyOf(i*3 + w)
			r := resultOf(k)
			if i%2 == 0 {
				c.put(k, r.Objects, r.Frontier)
				continue
			}
			rec, gen := c.store.file(r.Objects, r.Frontier)
			c.putBatch([]pptaState{k}, []uint32{rec}, gen)
		}
	}
	scan := func(wg *sync.WaitGroup) {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			m.d.InvalidateMethod(m.method(keyOf(i)))
		}
	}
	readers := func(wg *sync.WaitGroup) {
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go read(wg, r)
		}
	}
	integrity := func(phase string) {
		if err := m.d.CheckIntegrity(); err != nil {
			t.Fatalf("CheckIntegrity after %s: %v", phase, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go write(&wg, w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			runtime.Gosched()
			c.clear()
		}
	}()
	readers(&wg)
	wg.Wait()
	integrity("writers")

	wg.Add(1)
	go scan(&wg)
	readers(&wg)
	wg.Wait()
	integrity("invalidations")

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go write(&wg, w)
	}
	wg.Add(2)
	go scan(&wg)
	go scan(&wg)
	readers(&wg)
	wg.Wait()
	integrity("writers racing invalidations")

	meth := m.method(keyOf(0))
	m.d.InvalidateMethod(meth)
	c.each(func(k pptaState, _ Summary) {
		if m.method(k) == meth {
			t.Errorf("entry %+v of method %d survived its quiesced invalidation", k, meth)
		}
	})
	if got := m.d.InvalidateMethod(meth); got != 0 {
		t.Errorf("second invalidation of method %d dropped %d entries", meth, got)
	}
}

// TestSummaryCachePointerFree: nothing the cache stores per entry or per
// record may hold a pointer — the garbage collector then scans only the
// segment directories and slot-array headers.
func TestSummaryCachePointerFree(t *testing.T) {
	var (
		s  cacheStripe
		st resultStore
	)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(s.keys).Elem(),
		reflect.TypeOf(s.recs).Elem(),
		reflect.TypeOf(st.dhash).Elem(),
		reflect.TypeOf(st.drec).Elem(),
		reflect.TypeOf(st.recs.segs[0]).Elem(),
		reflect.TypeOf(st.objs.segs[0]).Elem(),
		reflect.TypeOf(st.frs.segs[0]).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestSummaryCacheBytesPerEntry is the memory guard: sweeping every local
// of soot-c at scale 0.05 grows the live heap by at most 36 bytes per
// cached summary — the measured 29 B plus 25%.
func TestSummaryCacheBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a whole benchmark program")
	}
	const maxBytesPerEntry = 36
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(0.05), 1)
	d := NewDynSum(prog.G, Config{}, nil)
	dst := NewPointsToSet()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle also empties the scratch pool's victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for n := range prog.G.NumNodes() {
		if prog.G.Node(pag.NodeID(n)).Kind != pag.Local {
			continue
		}
		if err := d.Query(nil, dst, pag.NodeID(n), intstack.Empty); err != nil && !errors.Is(err, ErrBudget) && !errors.Is(err, ErrDepth) {
			t.Fatal(err)
		}
	}
	dst = nil
	after := heap()
	entries := d.SummaryCount()
	if entries < 5_000 {
		t.Fatalf("sweep cached only %d summaries; the guard needs a large cache", entries)
	}
	per := float64(int64(after)-int64(before)) / float64(entries)
	t.Logf("%d summaries, %.1f B of heap each", entries, per)
	if per > maxBytesPerEntry {
		t.Errorf("cache costs %.1f B per summary, want <= %d", per, maxBytesPerEntry)
	}
	runtime.KeepAlive(d)
}
