package delta

import "dynsum/internal/pag"

// Test hooks on the patch indexes (for the external tests).

// ReuseBase is the condensed entry of a node whose condensed spans are
// its base-view spans.
const ReuseBase = reuseBase

// CondSlot returns n's condensed entry: -1 (freeze-time condensed spans),
// ReuseBase, or the condAdj slot holding n's own spans.
func CondSlot(o *Overlay, n pag.NodeID) int32 { return o.condSlot(n) }

// CondSlots returns how many condAdj slots the overlay has allocated and
// how many of them are free.
func CondSlots(o *Overlay) (slots, free int) { return len(o.condAdj), len(o.freeCond) }

// BasePatched reports whether n reads a per-node base-view patch (rather
// than its frozen spans or, for an added node, its flat block).
func BasePatched(o *Overlay, n pag.NodeID) bool { return o.baseIdx.get(n) != noEntry }

// IndexEntries returns how many nodes each view's patch index marks.
func IndexEntries(o *Overlay) (base, cond int) { return len(o.baseIdx.slots), len(o.condIdx.slots) }
