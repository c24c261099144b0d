package delta

import (
	"math/rand"
	"slices"
	"testing"

	"dynsum/internal/pag"
)

// TestPatchIndexMatchesMap drives a patch index through batches of
// inserts, updates and removals spread over many bitmap words and checks
// every lookup, the marked-node order and the byte count against a map.
func TestPatchIndexMatchesMap(t *testing.T) {
	const nodes = 5000
	rng := rand.New(rand.NewSource(1))
	var x patchIndex
	want := map[pag.NodeID]int32{}
	held := int64(0)
	for batch := 0; batch < 40; batch++ {
		picked := map[pag.NodeID]bool{}
		var changes []indexEntry
		for range rng.Intn(200) + 1 {
			n := pag.NodeID(rng.Intn(nodes))
			if picked[n] {
				continue
			}
			picked[n] = true
			slot := int32(rng.Intn(1000))
			if _, ok := want[n]; ok && rng.Intn(3) == 0 {
				slot = noEntry
			}
			changes = append(changes, indexEntry{n, slot})
		}
		slices.SortFunc(changes, func(a, b indexEntry) int { return int(a.n - b.n) })
		for _, c := range changes {
			if c.slot == noEntry {
				delete(want, c.n)
			} else {
				want[c.n] = c.slot
			}
		}
		held += x.update(changes)
		if held != x.bytes() {
			t.Fatalf("batch %d: update reported %d B in all, index holds %d", batch, held, x.bytes())
		}
		for n := pag.NodeID(0); n < nodes+128; n++ {
			got := x.get(n)
			if w, ok := want[n]; ok != (got != noEntry) || ok && got != w {
				t.Fatalf("batch %d: get(%d) = %d, want %d (marked %v)", batch, n, got, w, ok)
			}
		}
		var marked []pag.NodeID
		for n := range x.nodes() {
			marked = append(marked, n)
		}
		if !slices.IsSorted(marked) || len(marked) != len(want) || len(x.slots) != len(want) {
			t.Fatalf("batch %d: %d marked nodes (sorted %v), %d slots, want %d", batch, len(marked), slices.IsSorted(marked), len(x.slots), len(want))
		}
	}
}
