package delta

import "dynsum/internal/pag"

// Test hooks on the condensed patch table (for the external tests).

// ReuseBase is the patchCond mark of a node whose condensed spans are its
// base-view spans.
const ReuseBase = reuseBase

// CondSlot returns n's patchCond entry: -1 (freeze-time condensed spans),
// ReuseBase, or the condAdj slot holding n's own spans.
func CondSlot(o *Overlay, n pag.NodeID) int32 { return o.patchCond[n] }

// CondSlots returns how many condAdj slots the overlay has allocated and
// how many of them are free.
func CondSlots(o *Overlay) (slots, free int) { return len(o.condAdj), len(o.freeCond) }
