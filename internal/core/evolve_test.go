package core

import (
	"runtime"
	"sync"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/intstack"
)

// TestOverlayBytesPerSession is the overlay's memory guard: replaying
// bloat-cyclic at scale 0.2 (seed 7, 15 waves) on four engines over one
// tier grows the live heap by at most maxBytesPerSession per engine. A
// server multiplies each session's overlay by its session count, so a
// per-overlay copy of base data, or of spans the overlay already holds,
// shows here. Each engine measures 0.83 MB (1.14 MB with a dense patch
// table per view and a patch header per added node, 2.14 MB when every
// overlay also copied the base indexes and its condensed spans); the
// bound leaves 10% of headroom.
func TestOverlayBytesPerSession(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a whole evolve on several engines")
	}
	const (
		sessions           = 4
		maxBytesPerSession = 913_000
	)
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("bloat-cyclic").Scaled(0.2), 7, 15)
	if err != nil {
		t.Fatal(err)
	}
	tier := NewSummaryTier(ev.Base.G, Config{})
	engines := make([]*DynSum, sessions)
	for i := range engines {
		engines[i] = tier.NewDynSum(nil)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for k := 1; k < ev.NumWaves(); k++ {
		for _, d := range engines {
			log, err := d.NewDeltaLog()
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.WaveLog(log, k); err != nil {
				t.Fatal(err)
			}
			res, err := d.ApplyDelta(log)
			if err != nil {
				t.Fatal(err)
			}
			if res.Compacted {
				t.Fatalf("wave %d compacted; the guard measures live overlays", k)
			}
		}
	}
	after := heap()
	per := float64(int64(after)-int64(before)) / sessions
	t.Logf("%d sessions, %.0f B of heap each (Stats.Bytes %d)", sessions, per, engines[0].Overlay().Stats().Bytes)
	if per > maxBytesPerSession {
		t.Errorf("an evolved session costs %.0f B, want <= %d", per, maxBytesPerSession)
	}
	// The evolve program stays live across both heap reads: were it
	// collected in between, its release would offset the overlays' growth.
	runtime.KeepAlive(ev)
	runtime.KeepAlive(engines)
}

// TestSharedDeltaBaseConcurrentApply: engines on one tier replay an
// evolve from several goroutines at once, so the tier's delta.Base is
// built and read concurrently; every engine ends with the same overlay
// and the same answers.
func TestSharedDeltaBaseConcurrentApply(t *testing.T) {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("bloat-cyclic").Scaled(0.005), 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	tier := NewSummaryTier(ev.Base.G, Config{CompactFraction: -1})
	ctxs := new(intstack.Table)
	engines := make([]*DynSum, 4)
	for i := range engines {
		engines[i] = tier.NewDynSum(ctxs)
	}
	var wg sync.WaitGroup
	for _, d := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k < ev.NumWaves(); k++ {
				log, err := d.NewDeltaLog()
				if err == nil {
					err = ev.WaveLog(log, k)
				}
				if err == nil {
					_, err = d.ApplyDelta(log)
				}
				if err != nil {
					t.Errorf("wave %d: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := engines[0].Overlay().Stats()
	for i, d := range engines[1:] {
		if got := d.Overlay().Stats(); got != want {
			t.Errorf("engine %d: overlay stats %+v, want %+v", i+1, got, want)
		}
	}
	qs := ev.DerefsThrough(ev.NumWaves() - 1)
	if len(qs) == 0 || ev.Base.G.Condensation().Trivial() {
		t.Fatal("the evolve needs query sites and assign SCCs")
	}
	for _, q := range qs {
		w, errW := engines[0].PointsTo(q.Var)
		for i, d := range engines[1:] {
			got, errG := d.PointsTo(q.Var)
			if (errG == nil) != (errW == nil) || errW == nil && !got.Equal(w) {
				t.Errorf("engine %d: pts(%d) differs from engine 0", i+1, q.Var)
			}
		}
	}
}
