package core

import (
	"errors"
	"strings"
	"testing"

	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// warmEngine builds an engine over a random frozen program and answers
// every local-variable query to populate the cache.
func warmEngine(t *testing.T) *DynSum {
	t.Helper()
	p := fixture.RandProgram(11, fixture.RandConfig{Globals: 2, GlobalAssigns: 4})
	p.G.Freeze()
	d := NewDynSum(p.G, Config{}, nil)
	for _, v := range fixture.AllLocals(p) {
		if _, err := d.PointsTo(v); err != nil && !errors.Is(err, ErrDepth) && !errors.Is(err, ErrBudget) {
			t.Fatalf("PointsTo(%d): %v", v, err)
		}
	}
	if d.SummaryCount() == 0 {
		t.Fatal("cache stayed empty; fixture too small")
	}
	return d
}

// warmPrivateEngine is warmEngine for an evolved engine: an empty delta
// is applied before the sweep, so every summary lands in the engine's
// private table and the tier stays empty.
func warmPrivateEngine(t *testing.T) *DynSum {
	t.Helper()
	p := fixture.RandProgram(11, fixture.RandConfig{Globals: 2, GlobalAssigns: 4})
	p.G.Freeze()
	d := NewDynSum(p.G, Config{}, nil)
	l, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelta(l); err != nil {
		t.Fatal(err)
	}
	for _, v := range fixture.AllLocals(p) {
		if _, err := d.PointsTo(v); err != nil && !errors.Is(err, ErrDepth) && !errors.Is(err, ErrBudget) {
			t.Fatalf("PointsTo(%d): %v", v, err)
		}
	}
	if visible, priv := d.SummaryCounts(); visible != 0 || priv == 0 {
		t.Fatalf("evolved engine sees %d tier and %d private entries, want 0 and some", visible, priv)
	}
	return d
}

// plantKey files k → record 0 straight into its tier stripe and reveals
// it to d, bypassing the write-back path.
func plantKey(d *DynSum, k pptaState) {
	pk := pkey(k)
	s, i, h := d.cache.tier.stripe(pk)
	s.mu.Lock()
	d.cache.reveal(s, i, s.add(pk+1, h, 0))
	s.mu.Unlock()
}

// plantPrivateKey inserts k → rec straight into stripe i of d's private
// table (its own stripe when i < 0), bypassing putBatch.
func plantPrivateKey(d *DynSum, k pptaState, rec uint32, i int) {
	pk := pkey(k)
	s, h := d.cache.priv.stripe(pk)
	if i >= 0 {
		s = &d.cache.priv.stripes[i]
	}
	d.cache.privUsed.Store(true)
	s.mu.Lock()
	s.set(pk+1, h, rec)
	s.mu.Unlock()
}

func TestCheckIntegrityHealthy(t *testing.T) {
	d := warmEngine(t)
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("healthy engine flagged: %v", err)
	}
}

// TestInvalidateMethodDropsPlantedEntry: an entry planted straight into
// its tier stripe, bypassing the write-back path, is still found by the invalidation scan
// — it drops exactly the method's entries, the planted one included, and
// a second call drops nothing.
func TestInvalidateMethodDropsPlantedEntry(t *testing.T) {
	d := warmEngine(t)
	k := pptaState{node: 0, fs: 7, st: S2}
	if _, ok := d.cache.get(k); ok {
		t.Fatalf("fixture already caches %+v", k)
	}
	plantKey(d, k)
	if err := d.CheckIntegrity(); err != nil {
		t.Fatalf("planted entry flagged: %v", err)
	}
	m := d.g.Node(k.node).Method
	want := 0
	d.cache.each(func(e pptaState, _ Summary) {
		if d.g.Node(e.node).Method == m {
			want++
		}
	})
	total := d.SummaryCount()
	if got := d.InvalidateMethod(m); got != want {
		t.Fatalf("InvalidateMethod(%d) dropped %d entries, %d lie in the method", m, got, want)
	}
	if _, ok := d.cache.get(k); ok {
		t.Fatal("planted entry survived its method's invalidation")
	}
	if got := d.SummaryCount(); got != total-want {
		t.Errorf("SummaryCount = %d, want %d", got, total-want)
	}
	if got := d.InvalidateMethod(m); got != 0 {
		t.Errorf("second invalidation dropped %d entries", got)
	}
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("after invalidation: %v", err)
	}
}

// TestInvalidateMethodDropsPlantedPrivateEntry is the private-table
// version: an entry planted straight into an evolved engine's private
// stripe is dropped with its method, and a second call drops nothing.
func TestInvalidateMethodDropsPlantedPrivateEntry(t *testing.T) {
	d := warmPrivateEngine(t)
	k := pptaState{node: 0, fs: 7, st: S2}
	if _, ok := d.cache.get(k); ok {
		t.Fatalf("fixture already caches %+v", k)
	}
	plantPrivateKey(d, k, 0, -1)
	if err := d.CheckIntegrity(); err != nil {
		t.Fatalf("planted entry flagged: %v", err)
	}
	m := d.ov.Node(k.node).Method
	want := 0
	d.cache.each(func(e pptaState, _ Summary) {
		if d.ov.Node(e.node).Method == m {
			want++
		}
	})
	if got := d.InvalidateMethod(m); got != want {
		t.Fatalf("InvalidateMethod(%d) dropped %d entries, %d lie in the method", m, got, want)
	}
	if _, ok := d.cache.get(k); ok {
		t.Fatal("planted entry survived its method's invalidation")
	}
	if got := d.InvalidateMethod(m); got != 0 {
		t.Errorf("second invalidation dropped %d entries", got)
	}
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("after invalidation: %v", err)
	}
}

func TestCheckIntegrityKeyOutOfRange(t *testing.T) {
	d := warmEngine(t)
	plantKey(d, pptaState{node: 99999, fs: 0, st: S1})
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "outside the view") {
		t.Fatalf("out-of-range key not detected: %v", err)
	}
}

func TestCheckIntegrityRecordOutOfRange(t *testing.T) {
	d := warmEngine(t)
	st := &d.cache.tier.store
	st.mu.Lock()
	r, dst := st.recs.alloc(1)
	dst[0] = resultRecord{objOff: st.objs.n, objLen: 3}
	st.mu.Unlock()
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "outside the arena") {
		t.Fatalf("record %d past the arena end not detected: %v", r, err)
	}
}

func TestCheckIntegrityInternMisfiled(t *testing.T) {
	d := warmEngine(t)
	st := &d.cache.tier.store
	st.mu.Lock()
	for i, h := range st.dhash {
		if h == 0 {
			st.dhash[i], st.drec[i] = 12345, 0
			break
		}
	}
	st.mu.Unlock()
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("misfiled intern record not detected: %v", err)
	}
}

func TestCheckIntegrityInternMutated(t *testing.T) {
	d := warmEngine(t)
	r, _ := d.cache.tier.store.file([]pag.NodeID{7, 8, 9}, nil)
	d.cache.tier.store.view(r).Objects[0] = 42 // violates the immutability contract of filed records
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Fatalf("mutated record not detected: %v", err)
	}
}

func TestCheckIntegrityPrivateKeyOutOfRange(t *testing.T) {
	d := warmPrivateEngine(t)
	plantPrivateKey(d, pptaState{node: 99999, fs: 0, st: S1}, 0, -1)
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "cache: entry key node 99999 outside the view") {
		t.Fatalf("out-of-range private key not detected: %v", err)
	}
}

func TestCheckIntegrityPrivateKeyMisfiled(t *testing.T) {
	d := warmPrivateEngine(t)
	k := pptaState{node: 0, fs: 7, st: S2}
	home, _ := d.cache.priv.stripe(pkey(k))
	wrong := 0
	if home == &d.cache.priv.stripes[0] {
		wrong = 1
	}
	plantPrivateKey(d, k, 0, wrong)
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "hashes elsewhere") {
		t.Fatalf("private key in the wrong stripe not detected: %v", err)
	}
}

func TestCheckIntegrityPrivateRecordOutOfRange(t *testing.T) {
	d := warmPrivateEngine(t)
	st := &d.cache.priv.store
	plantPrivateKey(d, pptaState{node: 0, fs: 7, st: S2}, st.recs.n+5, -1)
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "cache: key") || !strings.Contains(err.Error(), "names record") {
		t.Fatalf("private key naming a missing record not detected: %v", err)
	}

	d = warmPrivateEngine(t)
	st = &d.cache.priv.store
	st.mu.Lock()
	r, dst := st.recs.alloc(1)
	dst[0] = resultRecord{objOff: st.objs.n, objLen: 3}
	st.mu.Unlock()
	err = d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "cache: record") || !strings.Contains(err.Error(), "outside the arena") {
		t.Fatalf("private record %d past the arena end not detected: %v", r, err)
	}
}

// TestCheckIntegrityVisibleAndPrivate: a key the engine sees in the tier
// must not also sit in its private table.
func TestCheckIntegrityVisibleAndPrivate(t *testing.T) {
	d := warmEngine(t)
	var k pptaState
	d.cache.each(func(e pptaState, _ Summary) { k = e })
	plantPrivateKey(d, k, 0, -1)
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "both visible and private") {
		t.Fatalf("key visible in the tier and private not detected: %v", err)
	}
}
