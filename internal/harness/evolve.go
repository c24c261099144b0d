package harness

import (
	"fmt"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
)

// This file implements the dynamic-evolution experiment behind
// `experiments -evolve`: the paper's headline scenario — the program keeps
// arriving while the analysis is live — replayed as a load order on the
// Table 3 profiles and measured two ways after every wave:
//
//   - overlay: one live engine absorbs the wave through ApplyDelta (epoch
//     overlay, local condensation repair, targeted invalidation) and then
//     answers the cumulative NullDeref batch, riding every summary the
//     wave did not touch;
//   - rebuild: the prefix graph is constructed from scratch (validate,
//     freeze, condense), a cold engine is built on it, and the same batch
//     runs with an empty cache — what an engine without the delta
//     subsystem has to do on every change.
//
// Wall time depends on the machine, so the table also reports the
// deterministic counters: summaries invalidated per wave, the overlay
// fraction that drives compaction, and the overlay's final shape.

// ApplyWave advances a live engine by one replay wave: position a log at
// the engine's current program, fill it with wave k, apply it.
func ApplyWave(d *core.DynSum, ev *benchgen.EvolveProgram, k int) (core.DeltaResult, error) {
	log, err := d.NewDeltaLog()
	if err != nil {
		return core.DeltaResult{}, err
	}
	if err := ev.WaveLog(log, k); err != nil {
		return core.DeltaResult{}, err
	}
	return d.ApplyDelta(log)
}

// replayEvolve replays ev's load order on one live engine: each wave
// after the base is applied through ApplyWave, then the cumulative
// NullDeref batch runs. wave sees the engine after every wave, the wave's
// delta result (zero for the base) and its apply and batch times; its
// error stops the replay. The
// experiment table and the evolve/*/overlay bench record both run this
// loop.
func replayEvolve(ev *benchgen.EvolveProgram, cfg core.Config,
	wave func(d *core.DynSum, k int, res core.DeltaResult, apply, batch time.Duration) error) (*core.DynSum, error) {
	d := core.NewDynSum(ev.Base.G, cfg, nil)
	dst := core.NewPointsToSet()
	for k := 0; k < ev.NumWaves(); k++ {
		var res core.DeltaResult
		start := time.Now()
		if k > 0 {
			var err error
			if res, err = ApplyWave(d, ev, k); err != nil {
				return nil, fmt.Errorf("%s wave %d: %w", ev.Name, k, err)
			}
		}
		applied := time.Now()
		for _, q := range ev.DerefsThrough(k) {
			d.Query(nil, dst, q.Var, intstack.Empty) // budget failures count like any query
		}
		if err := wave(d, k, res, applied.Sub(start), time.Since(applied)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// rebuildWave builds the prefix graph of wave k from scratch and answers
// the same cumulative NullDeref batch on a cold engine over it.
func rebuildWave(ev *benchgen.EvolveProgram, k int, cfg core.Config) error {
	prefix, err := ev.BuildPrefix(k)
	if err != nil {
		return fmt.Errorf("%s wave %d: rebuild: %w", ev.Name, k, err)
	}
	d := core.NewDynSum(prefix.G, cfg, nil)
	dst := core.NewPointsToSet()
	for _, q := range ev.DerefsThrough(k) {
		d.Query(nil, dst, q.Var, intstack.Empty)
	}
	return nil
}

// Evolve tabulates the overlay-vs-rebuild replay of every evolve
// workload: one row per wave, then a total row that also carries the
// overlay's final shape.
func Evolve(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title: []string{
			"== Dynamic evolution: delta overlay vs rebuild-from-scratch ==",
			fmt.Sprintf("(scale %g, seed %d, %d waves; cumulative NullDeref batch after every wave)",
				opts.Scale, opts.Seed, benchgen.DefaultEvolveWaves),
			"",
		},
		Header: []string{"benchmark", "wave", "queries", "apply(ms)", "invalidated", "overlay%",
			"overlay-total(ms)", "rebuild-total(ms)", "speedup", "compactions", "epochs",
			"added-methods", "patched-methods", "patched-nodes", "overlay-edges", "dissolved-sccs", "rebuilt-reps"},
		Footer: []string{
			"",
			"overlay-total = ApplyDelta + cumulative batch on the live engine;",
			"rebuild-total = build+freeze+condense the prefix + the same batch on a cold engine.",
			"invalidated = summaries dropped by the per-epoch cache scan (only the methods",
			"an epoch touched; summaries are method-local, so nothing cascades).",
			"compactions counts the wave's or, on a total row, the replay's overlay compactions.",
		},
	}
	for _, name := range benchgen.EvolveBenchmarks {
		p := benchgen.ProfileByNameMust(name).Scaled(opts.Scale)
		ev, err := benchgen.GenerateEvolve(p, opts.Seed, benchgen.DefaultEvolveWaves)
		if err != nil {
			return Table{}, fmt.Errorf("%s: %w", name, err)
		}
		var totOverlay, totRebuild time.Duration
		invalidated := 0
		d, err := replayEvolve(ev, opts.config(), func(d *core.DynSum, k int, res core.DeltaResult, apply, batch time.Duration) error {
			start := time.Now()
			if err := rebuildWave(ev, k, opts.config()); err != nil {
				return err
			}
			overlayDur, rebuildDur := apply+batch, time.Since(start)
			totOverlay += overlayDur
			totRebuild += rebuildDur
			invalidated += res.InvalidatedSummaries
			frac := res.OverlayFraction
			if ov := d.Overlay(); ov != nil {
				frac = ov.Fraction()
			}
			compacted := 0
			if res.Compacted {
				compacted = 1
			}
			t.addf("%s\t%d\t%d\t%s\t%d\t%.1f\t%s\t%s\t%.1f\t%d", ev.Name, k, len(ev.DerefsThrough(k)), ms(apply),
				res.InvalidatedSummaries, 100*frac, ms(overlayDur), ms(rebuildDur),
				ratio(rebuildDur, overlayDur), compacted)
			return nil
		})
		if err != nil {
			return Table{}, err
		}
		var s delta.Stats
		if ov := d.Overlay(); ov != nil {
			s = ov.Stats()
		}
		t.addf("%s\ttotal\t\t\t%d\t%.1f\t%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
			ev.Name, invalidated, 100*s.OverlayFraction(), ms(totOverlay), ms(totRebuild), ratio(totRebuild, totOverlay),
			d.Compactions(), s.Epochs, s.AddedMethods, s.PatchedMethods, s.PatchedNodes,
			s.OverlayEdges, s.DissolvedSCCs, s.RebuiltReps)
	}
	return t, nil
}
