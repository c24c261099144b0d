package enginetest

import (
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
)

// This file runs the internal/check validator stack over the generated
// benchmark corpus: every profile shape (acyclic Table 3, cyclic, and
// diamond variants) must satisfy the full graph/condensation invariants
// when frozen, and the overlay/cache/compaction invariants across a full
// evolve replay that auto-compacts at least once.

// validateProfiles is one profile of each generator shape.
func validateProfiles() []benchgen.Profile {
	return []benchgen.Profile{
		benchgen.ProfileByNameMust("soot-c"),         // acyclic chains
		benchgen.ProfileByNameMust("soot-c-cyclic"),  // assign cycles -> non-trivial SCCs
		benchgen.ProfileByNameMust("soot-c-diamond"), // DAG-heavy copy webs
	}
}

// TestValidateFrozenCondensedProfiles runs the deep structural validators
// on each profile's frozen program plus its freeze-time condensation.
func TestValidateFrozenCondensedProfiles(t *testing.T) {
	for _, p := range validateProfiles() {
		p = p.Scaled(0.004)
		t.Run(p.Name, func(t *testing.T) {
			prog := benchgen.Generate(p, 7)
			if err := check.Graph(prog.G); err != nil {
				t.Fatalf("frozen form: %v", err)
			}
			if err := check.Condensation(prog.G, prog.G.Condensation()); err != nil {
				t.Fatalf("condensation: %v", err)
			}
		})
	}
}

// TestValidateEvolveReplayProfiles replays each profile's full load
// order with a compaction threshold low enough to force at least one
// auto-compaction, validating the live overlay (or the compacted graph)
// and the cache index after every wave, with queries in between so the
// cache carries real state.
func TestValidateEvolveReplayProfiles(t *testing.T) {
	for _, p := range validateProfiles() {
		p = p.Scaled(0.004)
		t.Run(p.Name, func(t *testing.T) {
			ev, err := benchgen.GenerateEvolve(p, 7, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := bigBudget
			cfg.CompactFraction = 1e-9 // every wave crosses the threshold
			d := core.NewDynSum(ev.Base.G, cfg, new(intstack.Table))

			compactions := 0
			for k := 0; k < ev.NumWaves(); k++ {
				if k > 0 {
					log, err := d.NewDeltaLog()
					if err != nil {
						t.Fatal(err)
					}
					if err := ev.WaveLog(log, k); err != nil {
						t.Fatal(err)
					}
					res, err := d.ApplyDelta(log)
					if err != nil {
						t.Fatalf("wave %d: ApplyDelta: %v", k, err)
					}
					if res.Compacted {
						compactions++
					}
				}

				prefix, err := ev.BuildPrefix(k)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range derefVars(prefix) {
					if _, err := d.PointsTo(v); err != nil {
						t.Fatalf("wave %d: PointsTo(%d): %v", k, v, err)
					}
				}

				if ov := d.Overlay(); ov != nil {
					if err := check.Overlay(ov, d.Graph(), 0); err != nil {
						t.Fatalf("wave %d: overlay: %v", k, err)
					}
				} else {
					g := d.Graph()
					if err := check.Graph(g); err != nil {
						t.Fatalf("wave %d: graph: %v", k, err)
					}
					if err := check.Condensation(g, g.Condensation()); err != nil {
						t.Fatalf("wave %d: condensation: %v", k, err)
					}
				}
				if err := check.Cache(d); err != nil {
					t.Fatalf("wave %d: cache: %v", k, err)
				}
			}
			if compactions == 0 {
				t.Fatal("replay never auto-compacted; the threshold path went untested")
			}
		})
	}
}
