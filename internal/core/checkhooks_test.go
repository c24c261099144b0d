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

// plantKey inserts k → record 0 straight into its stripe, bypassing
// putBatch.
func plantKey(d *DynSum, k pptaState) {
	pk := pkey(k)
	s, h := d.cache.stripe(pk)
	s.mu.Lock()
	s.set(pk+1, h, 0)
	s.mu.Unlock()
}

func TestCheckIntegrityHealthy(t *testing.T) {
	d := warmEngine(t)
	if err := d.CheckIntegrity(); err != nil {
		t.Errorf("healthy engine flagged: %v", err)
	}
}

// TestInvalidateMethodDropsPlantedEntry: an entry planted straight into
// its stripe, bypassing putBatch, is still found by the invalidation scan
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
	st := &d.cache.store
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
	st := &d.cache.store
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
	r, _ := d.cache.store.file([]pag.NodeID{7, 8, 9}, nil)
	d.cache.store.view(r).Objects[0] = 42 // violates the immutability contract of filed records
	err := d.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Fatalf("mutated record not detected: %v", err)
	}
}
