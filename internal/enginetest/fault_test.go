package enginetest

import (
	"errors"
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/faultinject"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file is the crash-consistency sweep (DESIGN.md §12): for every
// fault-injection point the engine exposes, trigger the fault at chosen
// arrival positions and assert the quarantine contract — the panic
// surfaces as a typed error, every structural validator stays green, and
// a clean re-run answers byte-identically to an engine that never saw
// the fault. Query-path faults (PPTA expansion, write-back commit, cache
// insertion) sweep all four engine modes (memo on/off × condensed/base);
// mutator faults (Overlay.Apply's commit boundary, Compact's rebuild)
// additionally assert the pre-mutation state survives untouched and the
// aborted operation can simply be retried.

// queryPoints are the injection points a query can cross.
var queryPoints = []faultinject.Point{
	faultinject.PPTAExpand,
	faultinject.WriteBackCommit,
	faultinject.CachePutBatch,
}

// sampleArrivals picks which arrival positions to arm out of n observed:
// the first few, the midpoint and the last — in -short mode just the
// first and last.
func sampleArrivals(n int64) []int64 {
	if n <= 0 {
		return nil
	}
	var ks []int64
	add := func(k int64) {
		if k < 1 || k > n {
			return
		}
		for _, have := range ks {
			if have == k {
				return
			}
		}
		ks = append(ks, k)
	}
	add(1)
	add(n)
	if !testing.Short() {
		add(2)
		add(3)
		add(n / 2)
	}
	return ks
}

// faultSweepVars picks a small deterministic query batch from prog.
func faultSweepVars(prog *pag.Program, max int) []pag.NodeID {
	locals := fixture.AllLocals(prog)
	if len(locals) <= max {
		return locals
	}
	stride := len(locals) / max
	out := make([]pag.NodeID, 0, max)
	for i := 0; i < len(locals) && len(out) < max; i += stride {
		out = append(out, locals[i])
	}
	return out
}

// TestQueryFaultCrashConsistency: for each engine mode and each
// query-path injection point, arm the fault at sampled arrivals, run the
// batch, and require (1) the fault surfaces as exactly a typed
// *QueryPanicError, (2) the cache/index invariants hold afterwards, and
// (3) an uninjected re-run of every query matches the never-faulted
// oracle byte-for-byte.
func TestQueryFaultCrashConsistency(t *testing.T) {
	prog := fixture.RandProgram(11, fixture.RandConfig{}.Defaults())
	vars := faultSweepVars(prog, 8)
	if len(vars) == 0 {
		t.Fatal("empty query batch")
	}

	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) {
			newEngine := func() *core.DynSum {
				return core.NewDynSum(prog.G, mode.with(bigBudget), new(intstack.Table))
			}

			// Never-faulted oracle answers.
			oracle := newEngine()
			want := make([]*core.PointsToSet, len(vars))
			wantErr := make([]error, len(vars))
			for i, v := range vars {
				want[i], wantErr[i] = oracle.PointsTo(v)
			}

			for _, p := range queryPoints {
				// Counting run: learn how often this mode crosses p.
				cs := faultinject.NewSchedule()
				faultinject.Activate(cs)
				count := newEngine()
				for _, v := range vars {
					count.PointsTo(v) //nolint:errcheck // counting arrivals only
				}
				faultinject.Deactivate()
				n := cs.Arrivals(p)
				if n == 0 {
					continue // this mode never crosses p (e.g. nomemo never commits)
				}

				for _, k := range sampleArrivals(n) {
					tag := fmt.Sprintf("%s@%d", p, k)
					s := faultinject.NewSchedule()
					s.Arm(p, k)
					faultinject.Activate(s)
					d := newEngine()
					panics := 0
					for _, v := range vars {
						_, err := d.PointsTo(v)
						var qp *core.QueryPanicError
						if errors.As(err, &qp) {
							panics++
							var flt *faultinject.Fault
							if !errors.As(err, &flt) || flt.Point != p {
								t.Errorf("%s: quarantined error does not carry the injected fault: %v", tag, err)
							}
						}
					}
					faultinject.Deactivate()
					if panics != 1 {
						t.Errorf("%s: %d quarantined panics, want exactly 1", tag, panics)
					}

					// Structural invariants survived the mid-step abort.
					if err := d.CheckIntegrity(); err != nil {
						t.Errorf("%s: CheckIntegrity: %v", tag, err)
					}
					if err := check.Cache(d); err != nil {
						t.Errorf("%s: cache validation: %v", tag, err)
					}

					// Clean re-run answers byte-identically to the oracle.
					for i, v := range vars {
						got, err := d.PointsTo(v)
						compareOn(t, tag, prog.G, v, got, want[i], err, wantErr[i], true)
					}
				}
			}
		})
	}
}

// evolveFixture builds a two-wave evolve program plus the engine config
// the mutator fault tests share.
func faultEvolveFixture(t *testing.T) (*benchgen.EvolveProgram, core.Config) {
	t.Helper()
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	return ev, cfg
}

// TestApplyDeltaFaultAtomicity: a fault at the stage→commit boundary of
// Overlay.Apply aborts the epoch as a typed *MutatorPanicError, leaves
// the engine answering exactly the pre-epoch program, and leaves the log
// reusable — the same Apply retried without the fault matches an engine
// that applied cleanly the first time.
func TestApplyDeltaFaultAtomicity(t *testing.T) {
	ev, cfg := faultEvolveFixture(t)
	baseFP := check.Fingerprint(ev.Base.G)
	prefix, err := ev.BuildPrefix(1)
	if err != nil {
		t.Fatal(err)
	}
	vars := faultSweepVars(prefix, 8)

	// Clean-apply reference engine.
	clean := core.NewDynSum(ev.Base.G, cfg, new(intstack.Table))
	log, err := clean.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(log, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.ApplyDelta(log); err != nil {
		t.Fatal(err)
	}

	// Faulted engine: the commit-boundary fault must abort atomically.
	d := core.NewDynSum(ev.Base.G, cfg, new(intstack.Table))
	dlog, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(dlog, 1); err != nil {
		t.Fatal(err)
	}
	s := faultinject.NewSchedule()
	s.Arm(faultinject.OverlayApply, 1)
	faultinject.Activate(s)
	_, err = d.ApplyDelta(dlog)
	faultinject.Deactivate()
	var mp *core.MutatorPanicError
	if !errors.As(err, &mp) {
		t.Fatalf("ApplyDelta under fault: err = %v (%T), want *MutatorPanicError", err, err)
	}
	if mp.Op != "ApplyDelta" {
		t.Errorf("MutatorPanicError.Op = %q, want ApplyDelta", mp.Op)
	}
	var flt *faultinject.Fault
	if !errors.As(err, &flt) || flt.Point != faultinject.OverlayApply {
		t.Errorf("quarantined error does not carry the injected fault: %v", err)
	}

	// Pre-epoch state intact: overlay validators green, answers are the
	// BASE program's answers.
	if ov := d.Overlay(); ov != nil {
		if ov.Epoch() != 0 {
			t.Errorf("aborted Apply advanced the epoch to %d", ov.Epoch())
		}
		if err := check.Overlay(ov, ev.Base.G, baseFP); err != nil {
			t.Errorf("overlay validation after aborted Apply: %v", err)
		}
	}
	baseRef := core.NewDynSum(ev.Base.G, cfg, new(intstack.Table))
	for _, v := range faultSweepVars(ev.Base, 8) {
		got, errG := d.PointsTo(v)
		want, errW := baseRef.PointsTo(v)
		compareOn(t, "post-abort-base", ev.Base.G, v, got, want, errG, errW, true)
	}

	// The log is untouched by a pre-commit abort: the retry must succeed
	// and converge with the clean-apply engine.
	if _, err := d.ApplyDelta(dlog); err != nil {
		t.Fatalf("retrying the aborted ApplyDelta: %v", err)
	}
	if ov := d.Overlay(); ov != nil {
		if err := check.Overlay(ov, ev.Base.G, baseFP); err != nil {
			t.Errorf("overlay validation after retried Apply: %v", err)
		}
	}
	for _, v := range vars {
		got, errG := d.PointsTo(v)
		want, errW := clean.PointsTo(v)
		compareOn(t, "post-retry", evolveNamer{d}, v, got, want, errG, errW, true)
	}
}

// TestCompactFaultLeavesEngineUsable: a fault in the middle of Compact's
// off-to-the-side rebuild surfaces as a *MutatorPanicError and leaves
// the pre-compaction engine fully usable — overlay intact, validators
// green, answers unchanged — and a clean retry compacts successfully.
func TestCompactFaultLeavesEngineUsable(t *testing.T) {
	ev, cfg := faultEvolveFixture(t)
	baseFP := check.Fingerprint(ev.Base.G)
	prefix, err := ev.BuildPrefix(1)
	if err != nil {
		t.Fatal(err)
	}
	vars := faultSweepVars(prefix, 8)

	d := core.NewDynSum(ev.Base.G, cfg, new(intstack.Table))
	log, err := d.NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(log, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelta(log); err != nil {
		t.Fatal(err)
	}
	want := make([]*core.PointsToSet, len(vars))
	wantErr := make([]error, len(vars))
	for i, v := range vars {
		want[i], wantErr[i] = d.PointsTo(v)
	}

	s := faultinject.NewSchedule()
	s.Arm(faultinject.CompactRebuild, 1)
	faultinject.Activate(s)
	err = d.Compact()
	faultinject.Deactivate()
	var mp *core.MutatorPanicError
	if !errors.As(err, &mp) {
		t.Fatalf("Compact under fault: err = %v (%T), want *MutatorPanicError", err, err)
	}
	if mp.Op != "Compact" {
		t.Errorf("MutatorPanicError.Op = %q, want Compact", mp.Op)
	}

	// Pre-compaction engine fully usable: overlay still present and
	// valid, answers unchanged.
	if d.Overlay() == nil {
		t.Fatal("aborted Compact dropped the overlay")
	}
	if d.Compactions() != 0 {
		t.Errorf("aborted Compact counted as a compaction")
	}
	if err := check.Overlay(d.Overlay(), ev.Base.G, baseFP); err != nil {
		t.Errorf("overlay validation after aborted Compact: %v", err)
	}
	for i, v := range vars {
		got, err := d.PointsTo(v)
		compareOn(t, "post-abort", evolveNamer{d}, v, got, want[i], err, wantErr[i], true)
	}

	// Retry compacts cleanly; the compacted engine answers identically.
	if err := d.Compact(); err != nil {
		t.Fatalf("retrying the aborted Compact: %v", err)
	}
	if d.Overlay() != nil {
		t.Error("clean Compact left the overlay in place")
	}
	if err := check.Graph(d.Graph()); err != nil {
		t.Errorf("compacted graph validation: %v", err)
	}
	if err := check.Condensation(d.Graph(), d.Graph().Condensation()); err != nil {
		t.Errorf("compacted condensation validation: %v", err)
	}
	for i, v := range vars {
		got, err := d.PointsTo(v)
		compareOn(t, "post-compact", d.Graph(), v, got, want[i], err, wantErr[i], true)
	}
}
