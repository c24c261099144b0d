package core

import (
	"errors"
	"fmt"

	"dynsum/internal/delta"
	"dynsum/internal/pag"
)

// This file wires the delta subsystem (internal/delta) into the DYNSUM
// engine: applying an epoch patches the engine's view of the frozen graph
// and drops the touched methods' summaries in one scan of the cache, so a
// program that keeps arriving (class loading, JIT recompilation, an IDE
// session) is absorbed at frozen-graph speed — the query path keeps its
// condensation, memoisation and zero-alloc warm behaviour, only the
// summaries the epoch actually touched are recomputed.
//
// All three operations here are engine mutators: like InvalidateMethod
// they must not race in-flight queries — quiesce the engine first.

// ErrNotEvolved is returned by Compact when the engine carries no overlay.
var ErrNotEvolved = errors.New("core: engine has no delta overlay to compact")

// ErrAutoCompact marks an ApplyDelta error from the automatic Compact
// that followed an applied epoch: the engine keeps the epoch, on the
// overlay the failed Compact left in place. Every other ApplyDelta error
// means the epoch did not apply.
var ErrAutoCompact = errors.New("core: epoch applied, auto-compaction failed")

// EpochApplied reports whether an ApplyDelta that returned err kept its
// epoch: it did on success and when only the auto-compaction failed.
func EpochApplied(err error) bool { return err == nil || errors.Is(err, ErrAutoCompact) }

// DeltaResult reports what one applied epoch did: the overlay-level
// ApplyStats plus the engine-level consequences (summaries invalidated for
// the touched methods, whether auto-compaction ran).
type DeltaResult struct {
	delta.ApplyStats

	// InvalidatedSummaries counts the cached summaries dropped for the
	// epoch's touched methods, all in one scan of the cache.
	InvalidatedSummaries int

	// Compacted reports that the overlay crossed Config.CompactFraction
	// and was merged into a fresh frozen graph (see Compact).
	Compacted bool
}

// NewDeltaLog starts a change log positioned at the engine's current
// program: fill it with delta.Log's Add/Redefine methods and apply it with
// ApplyDelta.
func (d *DynSum) NewDeltaLog() (*delta.Log, error) {
	if err := d.ensureOverlay(); err != nil {
		return nil, err
	}
	return d.ov.NewLog(), nil
}

func (d *DynSum) ensureOverlay() error {
	if d.ov != nil {
		return nil
	}
	// Engines still on the tier's graph share its Base; a compacted engine
	// indexes its own graph.
	var b *delta.Base
	var err error
	if tier := d.cache.tier; d.g == tier.g {
		b, err = tier.deltaBaseOf()
	} else {
		b, err = delta.NewBase(d.g)
	}
	if err != nil {
		return err
	}
	d.ov = b.NewOverlay()
	return nil
}

// ApplyDelta applies one epoch of recorded program changes to the engine
// (a mutator: quiesce first). The overlay absorbs the change without
// touching the frozen CSR arrays, the condensation is repaired locally
// (patched methods fall back to singleton representatives; untouched SCCs
// keep their shared summaries), and exactly the touched methods' cached
// summaries are invalidated in one scan of the cache. When the
// overlay's size crosses Config.CompactFraction of the base graph, the
// epoch finishes with an automatic Compact; if that fails, the epoch
// stays applied and the error matches ErrAutoCompact.
func (d *DynSum) ApplyDelta(l *delta.Log) (res DeltaResult, err error) {
	// Quarantine boundary: Apply stages every change read-only before its
	// commit point, so a panic it lets escape means the overlay (and the
	// engine) are still exactly the pre-epoch state — convert it to a
	// typed error and keep serving. A panic past the commit point is
	// re-raised: a half-applied epoch must not masquerade as an error
	// return. The log is untouched by a pre-commit abort and may be
	// re-applied.
	defer func() {
		if r := recover(); r != nil {
			if d.ov != nil && d.ov.Broken() {
				panic(r)
			}
			err = newMutatorPanicError("ApplyDelta", r)
		}
	}()
	if err := d.ensureOverlay(); err != nil {
		return DeltaResult{}, err
	}
	st, err := d.ov.Apply(l)
	if err != nil {
		return DeltaResult{}, err
	}
	res = DeltaResult{ApplyStats: st}
	res.InvalidatedSummaries = d.invalidateMethods(st.TouchedMethods)
	if frac := d.cfg.CompactFraction; frac > 0 && st.OverlayFraction > frac {
		if err = d.Compact(); err == nil {
			res.Compacted = true // Compact refreshed the open-world model
			return res, nil
		}
		err = fmt.Errorf("%w: %w", ErrAutoCompact, err)
	}
	// The epoch may have delivered a body to a bodyless method (or new
	// boundary edges to one): rebuild the open-world model against the
	// patched adjacency.
	d.refreshOpenWorld()
	return res, err
}

// Compact merges the engine's overlay into a fresh frozen, re-condensed
// graph with identical IDs and drops the overlay (a mutator: quiesce
// first). The engine detaches from its summary tier and clears its
// private table — the fresh condensation may pick different
// representatives, so representative-keyed entries cannot be carried
// over; that occasional full re-warm, on the private table from then on,
// is the cost the overlay amortises across the epochs in between.
// Returns ErrNotEvolved when there is no overlay.
func (d *DynSum) Compact() (err error) {
	// Quarantine boundary: Overlay.Compact builds the replacement graph
	// entirely off to the side — the engine's graph, overlay and cache are
	// untouched until the swap below — so a panic anywhere inside the
	// rebuild leaves the engine fully usable on its old overlay. Convert
	// it to a typed error; a later retry just rebuilds from scratch.
	defer func() {
		if r := recover(); r != nil {
			err = newMutatorPanicError("Compact", r)
		}
	}()
	if d.ov == nil {
		return ErrNotEvolved
	}
	g, err := d.ov.Compact()
	if err != nil {
		return err
	}
	d.g = g
	d.ov = nil
	d.cache.detach()
	d.compactions++
	d.refreshOpenWorld() // the blended frontiers referenced the old graph
	return nil
}

// Overlay exposes the engine's delta overlay for statistics (nil when the
// engine has never applied a delta, or right after a Compact).
func (d *DynSum) Overlay() *delta.Overlay { return d.ov }

// Compactions returns how many times the engine merged its overlay back
// into a fresh frozen graph.
func (d *DynSum) Compactions() int { return d.compactions }

// Graph returns the engine's current graph — the compacted one after a
// Compact swapped it in.
func (d *DynSum) Graph() *pag.Graph { return d.g }
