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

// This file checks the summary cache — two engines' views over one
// shared tier — against reference maps: random put/write-back/get/
// invalidate/evolve/detach sequences (a table test and
// FuzzSummaryCache), the table mechanics the sequences cannot force on
// their own (growth, backward-shift deletes across the wraparound, ⊤
// keys), concurrent readers and writers, and the memory layout the cache
// exists for.

// cacheModel drives two engines on one tier side by side with reference
// maps: ref[i] is what engine i must see, priv[i] which of those keys
// live in its private table, and tier the first result filed per tier
// key (the tier keeps it; later writers of the key only reveal it).
type cacheModel struct {
	t     testing.TB
	d     [2]*DynSum
	nodes int
	ref   [2]map[pptaState]Summary
	priv  [2]map[pptaState]bool
	tier  map[pptaState]Summary
}

func newCacheModel(t testing.TB) *cacheModel {
	p := fixture.RandProgram(3, fixture.RandConfig{Methods: 12}.Defaults())
	p.G.Freeze()
	tier := NewSummaryTier(p.G, Config{})
	m := &cacheModel{t: t, tier: map[pptaState]Summary{}}
	for i := range m.d {
		m.d[i] = tier.NewDynSum(nil)
		m.ref[i], m.priv[i] = map[pptaState]Summary{}, map[pptaState]bool{}
	}
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

func (m *cacheModel) method(k pptaState) pag.MethodID { return m.d[0].g.Node(k.node).Method }

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

// write records, in the reference, engine i writing r under k, and
// reports whether k became newly visible to it. An engine writes only
// keys it does not see, so a key that i sees in the tier is not written
// privately: ok is false and nothing changes.
func (m *cacheModel) write(i int, k pptaState, r Summary) (fresh, ok bool) {
	_, seen := m.ref[i][k]
	if m.d[i].clean() {
		if have, filed := m.tier[k]; filed {
			r = have
		} else {
			m.tier[k] = r
		}
	} else if seen && !m.priv[i][k] {
		return false, false
	} else {
		m.priv[i][k] = true
	}
	m.ref[i][k] = r
	return !seen, true
}

// apply runs one operation decoded from op and args (three bytes); bit 3
// of op picks the engine.
func (m *cacheModel) apply(op, a, b, c byte) {
	i := int(op>>3) & 1
	d := m.d[i]
	switch op % 8 {
	case 0, 1: // put
		k, r := m.key(a, b), modelResult(c)
		if _, ok := m.write(i, k, r); ok {
			d.cache.put(k, r.Objects, r.Frontier, d.clean())
		}
	case 2: // commit a write-back run, as a query does (a key may recur)
		sc := new(Scratch)
		fresh := 0
		for j := 0; j < int(c%6)+1; j++ {
			k := m.key(a+byte(j), b+byte(3*j))
			r := modelResult(c + byte(j))
			f, ok := m.write(i, k, r)
			if !ok {
				continue
			}
			if f {
				fresh++
			}
			sc.pendKeys = append(sc.pendKeys, k)
			sc.pendRIdx = append(sc.pendRIdx, int32(len(sc.mres)))
			sc.mres = append(sc.mres, memoResult{cached: r, spliced: true})
		}
		if len(sc.pendKeys) == 0 {
			return
		}
		if got := d.cache.commit(sc, d.clean()); got != fresh {
			m.t.Fatalf("engine %d: commit reported %d fresh keys, %d became visible", i, got, fresh)
		}
	case 3, 4, 5: // get
		m.check(i, m.key(a, b))
	case 6: // invalidate one method through the stripe scans
		meth := m.method(m.key(a, b))
		want := 0
		for k := range m.ref[i] {
			if m.method(k) == meth {
				delete(m.ref[i], k)
				delete(m.priv[i], k)
				want++
			}
		}
		if got := d.InvalidateMethod(meth); got != want {
			m.t.Fatalf("engine %d: InvalidateMethod(%d) dropped %d entries, reference holds %d", i, meth, got, want)
		}
	case 7: // rarely: evolve (private from now on) or detach
		switch a % 32 {
		case 1:
			if d.ov == nil {
				l, err := d.NewDeltaLog()
				if err != nil {
					m.t.Fatal(err)
				}
				if _, err := d.ApplyDelta(l); err != nil {
					m.t.Fatal(err)
				}
			}
		case 2:
			d.cache.detach()
			clear(m.ref[i])
			clear(m.priv[i])
		default:
			m.check(i, m.key(a, b))
		}
	}
}

func (m *cacheModel) check(i int, k pptaState) {
	got, ok := m.d[i].cache.get(k)
	want, wok := m.ref[i][k]
	if ok != wok {
		m.t.Fatalf("engine %d: get(%+v) present=%v, reference present=%v", i, k, ok, wok)
	}
	if ok && (!slices.Equal(got.Objects, want.Objects) || !slices.Equal(got.Frontier, want.Frontier)) {
		m.t.Fatalf("engine %d: get(%+v) = %v, reference %v", i, k, got, want)
	}
}

// verify checks both engines and the tier against the references, plus
// the structural invariants.
func (m *cacheModel) verify() {
	for i, d := range m.d {
		if got := d.SummaryCount(); got != len(m.ref[i]) {
			m.t.Fatalf("engine %d sees %d entries, reference %d", i, got, len(m.ref[i]))
		}
		if _, priv := d.SummaryCounts(); priv != len(m.priv[i]) {
			m.t.Fatalf("engine %d holds %d private entries, reference %d", i, priv, len(m.priv[i]))
		}
		for k := range m.ref[i] {
			m.check(i, k)
		}
		if err := d.CheckIntegrity(); err != nil {
			m.t.Fatalf("engine %d: CheckIntegrity: %v", i, err)
		}
	}
	if got := m.d[0].cache.tier.Entries(); got != len(m.tier) {
		m.t.Fatalf("tier holds %d entries, reference %d", got, len(m.tier))
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
	grewPriv := false
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
			for j := range m.d[0].cache.tier.stripes {
				grew = grew || len(m.d[0].cache.tier.stripes[j].keys) > 16
				for _, d := range m.d {
					grewPriv = grewPriv || len(d.cache.priv.stripes[j].keys) > 16
				}
			}
		}
		m.verify()
		if seed%2 == 0 && !grew {
			t.Errorf("seed %d: no tier stripe ever grew past its first table", seed)
		}
	}
	if !grewPriv {
		t.Error("no private stripe ever grew past its first table")
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
			m.write(0, w, r)
			m.d[0].cache.put(w, r.Objects, r.Frontier, true)
			m.check(0, e)
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
// together — two engines on one tier, each writing the same keys through
// both write paths: engine 0 is clean and writes to the tier, engine 1 has
// evolved and writes to its private table, whose clears (detach) race its
// writers and their generation guard. Every hit must carry exactly its
// key's result, and the quiesced engines must pass CheckIntegrity. Without a method index a
// scan racing a writer cannot strand an entry: it either hides a key or
// leaves it for the next scan, which the final exactness check confirms.
// Meant for -race (CI runs it with -count=10).
func TestSummaryCacheConcurrent(t *testing.T) {
	m := newCacheModel(t)
	l, err := m.d[1].NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.d[1].ApplyDelta(l); err != nil {
		t.Fatal(err)
	}
	if !m.d[0].clean() || m.d[1].clean() {
		t.Fatal("want engine 0 clean and engine 1 evolved")
	}
	keyOf := func(i int) pptaState { return m.key(byte(i), byte(i/7)) }
	resultOf := func(k pptaState) Summary { return modelResult(byte(int(k.node)*3 + int(k.fs) + int(k.st))) }
	read := func(wg *sync.WaitGroup, r int) {
		defer wg.Done()
		c := m.d[r%2].cache
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
		d := m.d[w%2]
		clean := d.clean()
		sc := new(Scratch)
		for i := 0; i < 600; i++ {
			k := keyOf(i*3 + w)
			r := resultOf(k)
			if i%2 == 0 {
				d.cache.put(k, r.Objects, r.Frontier, clean)
				continue
			}
			sc.pendKeys = append(sc.pendKeys[:0], k)
			sc.pendRIdx = append(sc.pendRIdx[:0], 0)
			sc.mres = append(sc.mres[:0], memoResult{cached: r, spliced: true})
			d.cache.commit(sc, clean)
		}
	}
	scan := func(wg *sync.WaitGroup, e int) {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			m.d[e].InvalidateMethod(m.method(keyOf(i)))
		}
	}
	readers := func(wg *sync.WaitGroup) {
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go read(wg, r)
		}
	}
	integrity := func(phase string) {
		for i, d := range m.d {
			if err := d.CheckIntegrity(); err != nil {
				t.Fatalf("engine %d: CheckIntegrity after %s: %v", i, phase, err)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go write(&wg, w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			runtime.Gosched()
			m.d[1].cache.detach()
		}
	}()
	readers(&wg)
	wg.Wait()
	integrity("writers")

	wg.Add(2)
	go scan(&wg, 0)
	go scan(&wg, 1)
	readers(&wg)
	wg.Wait()
	integrity("invalidations")

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go write(&wg, w)
	}
	wg.Add(2)
	go scan(&wg, 0)
	go scan(&wg, 1)
	readers(&wg)
	wg.Wait()
	integrity("writers racing invalidations")

	meth := m.method(keyOf(0))
	for i, d := range m.d {
		d.InvalidateMethod(meth)
		d.cache.each(func(k pptaState, _ Summary) {
			if m.method(k) == meth {
				t.Errorf("engine %d: entry %+v of method %d survived its quiesced invalidation", i, k, meth)
			}
		})
		if got := d.InvalidateMethod(meth); got != 0 {
			t.Errorf("engine %d: second invalidation of method %d dropped %d entries", i, meth, got)
		}
	}
}

// TestSummaryCachePointerFree: nothing the cache stores per entry or per
// record — in the private table, the tier or a view's bits — may hold a
// pointer — the garbage collector then scans only the
// segment directories and slot-array headers.
func TestSummaryCachePointerFree(t *testing.T) {
	var (
		s  cacheStripe
		ts tierStripe
		v  summaryView
		st resultStore
	)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(s.keys).Elem(),
		reflect.TypeOf(s.recs).Elem(),
		reflect.TypeOf(ts.entries).Elem(),
		reflect.TypeOf(v.bits[0]).Elem(),
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
// cached summary. A lone engine on its own tier measures 34.6 B: the
// key slots, records and arenas (29.0 B, the whole cost of a private
// table) plus the tier's entry-number arrays (4.4 B) and the view's bits
// (0.14 B). The bound leaves about 4% of headroom, so any new per-entry
// word fails it.
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
