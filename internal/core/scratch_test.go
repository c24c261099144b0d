package core

import (
	"testing"

	"dynsum/internal/pag"
)

// TestScratchTrimDropsOversizedBuffers pins the pool-retention fix: after
// one giant query, putting the Scratch back for a small graph must drop
// the outsized buffers instead of pinning them for the pool's lifetime.
func TestScratchTrimDropsOversizedBuffers(t *testing.T) {
	sc := new(Scratch)
	limit := retainLimit(100) // small graph

	// Blow every buffer past the limit.
	big := limit * 2
	sc.dwork = make([]driverTuple, 0, big)
	sc.pwork = make([]pptaState, 0, big)
	sc.objBuf = make([]pag.NodeID, 0, big)
	sc.frBuf = make([]FrontierState, 0, big)
	sc.seen.grow(1 << 20)
	sc.pvisited.grow(1 << 20)

	sc.trim(limit)
	if sc.dwork != nil || sc.pwork != nil || sc.objBuf != nil || sc.frBuf != nil {
		t.Error("oversized work/result buffers survived trim")
	}
	if sc.seen.lo != nil || sc.pvisited.keys != nil {
		t.Error("oversized visited tables survived trim")
	}

	// A trimmed Scratch must still work.
	sc.resetDriver()
	sc.resetPPTA()
	sc.propagate(driverTuple{node: 1})
	sc.pushPPTA(pptaState{node: 1})
	if len(sc.dwork) != 1 || len(sc.pwork) != 1 {
		t.Error("trimmed Scratch broken")
	}
}

// TestScratchTrimKeepsModestBuffers: buffers within the limit survive, so
// the steady-state warm path stays allocation-free.
func TestScratchTrimKeepsModestBuffers(t *testing.T) {
	sc := new(Scratch)
	limit := retainLimit(100_000)
	sc.dwork = make([]driverTuple, 0, 512)
	sc.pwork = make([]pptaState, 0, 512)
	sc.seen.grow(1 << 10)
	sc.pvisited.grow(1 << 10)
	sc.trim(limit)
	if cap(sc.dwork) != 512 || cap(sc.pwork) != 512 {
		t.Error("modest work stacks were dropped")
	}
	if len(sc.seen.lo) != 1<<10 || len(sc.pvisited.keys) != 1<<10 {
		t.Error("modest visited tables were dropped")
	}
}

func TestRetainLimitBounds(t *testing.T) {
	if lo := retainLimit(0); lo < 256 {
		t.Errorf("retainLimit(0) = %d, too small to be useful", lo)
	}
	if hi := retainLimit(1 << 30); hi > 1<<20 {
		t.Errorf("retainLimit(huge) = %d, unbounded retention", hi)
	}
	if a, b := retainLimit(1000), retainLimit(2000); a > b {
		t.Errorf("retainLimit not monotone: %d > %d", a, b)
	}
}

// TestVisitTablesStayPutOnFreshKeys: 10k generations of 8 keys never
// seen before must keep every visit table at its initial 256 slots and
// allocate nothing. Stale keys of earlier generations must not count as
// load that doubles a table: on cold traffic that grows the tables until
// every probe is a cache miss.
func TestVisitTablesStayPutOnFreshKeys(t *testing.T) {
	const gens, perGen = 10_000, 8
	var (
		set  visitSet
		m    visitMap
		set2 visitSet2
	)
	set.reset()
	m.reset()
	set2.reset()
	k := uint64(0)
	allocs := testing.AllocsPerRun(1, func() {
		for g := 0; g < gens; g++ {
			set.reset()
			m.reset()
			set2.reset()
			for i := 0; i < perGen; i++ {
				k++
				if !set.visit(k) || !set2.visit(k, k>>3) {
					t.Fatalf("generation %d: fresh key %d already visited", g, k)
				}
				if _, ok := m.get(k); ok {
					t.Fatalf("generation %d: fresh key %d already mapped", g, k)
				}
				m.put(k, int32(i))
			}
			for i := uint64(0); i < perGen; i++ {
				if v, ok := m.get(k - i); !ok || v != int32(perGen-1-i) {
					t.Fatalf("generation %d: key %d maps to %d, %v", g, k-i, v, ok)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations over %d generations", allocs, gens)
	}
	if len(set.keys) != 256 || len(m.keys) != 256 || len(set2.lo) != 256 {
		t.Errorf("tables grew to %d/%d/%d slots, want 256", len(set.keys), len(m.keys), len(set2.lo))
	}
}

// TestVisitTablesReset: a wipe on reset forgets every earlier key and
// keeps the current generation's semantics.
func TestVisitTablesReset(t *testing.T) {
	var set visitSet
	set.reset()
	for k := uint64(0); k < 150; k++ {
		set.visit(k)
	}
	set.reset() // 150 stale keys fill more than half: wiped
	if set.used != 0 || len(set.keys) != 256 {
		t.Fatalf("reset left %d used slots in %d", set.used, len(set.keys))
	}
	for k := uint64(0); k < 150; k++ {
		if !set.visit(k) {
			t.Fatalf("key %d still visited after reset", k)
		}
		if set.visit(k) {
			t.Fatalf("key %d visited twice in one generation", k)
		}
	}
}
