package check

import (
	"dynsum/internal/core"
)

// Cache validates the engine-side summary cache and intern tables of d:
// cache keys must name nodes inside the current view (so invalidation's
// node-bitset scan covers every entry), sit in the stripe their hash picks
// and name a filed record whose arena ranges are in bounds; d's visibility
// bits must name existing entries of its summary tier and never hide a
// private key; and every interned result must still hash to the table key
// it is filed under. The invariants live on
// unexported core structures, so the walk itself is core.DynSum's
// CheckIntegrity; this wrapper exists so callers audit the whole stack
// through one package. Quiesce the engine first.
func Cache(d *core.DynSum) error {
	return d.CheckIntegrity()
}
