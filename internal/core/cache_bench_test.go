package core_test

import (
	"errors"
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// BenchmarkInvalidateMethod measures the invalidation scan: on a soot-c
// cache warmed by a query for every local, InvalidateMethod builds a node
// bitset from the method and scans every stripe, so its cost grows with
// the cache, and the figure to read is ns/entry — call time divided by
// the entries scanned. "drop" invalidates one warm method per iteration
// and restores its entries untimed, so the cache size is stable; "miss"
// repeats the call on a method with nothing left to drop, the scan alone
// with no timer toggling; "miss-evolved" is "miss" after an empty delta
// epoch, where the node set comes from the overlay's method index instead
// of a pass over the node table. Scale 1 is the ledger's cold-sweep cache
// (about 180k summaries); its warm-up takes a few seconds.
func BenchmarkInvalidateMethod(b *testing.B) {
	perEntry := func(b *testing.B, entries int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
		b.ReportMetric(float64(entries), "entries")
	}
	for _, scale := range []float64{0.05, 1} {
		d, methods := sweepSootC(b, scale)
		b.Run(fmt.Sprintf("drop/scale%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := methods[i%len(methods)]
				b.StopTimer()
				saved := core.SnapshotMethod(d, m)
				b.StartTimer()
				if dropped := d.InvalidateMethod(m); dropped != len(saved) {
					b.Fatalf("invalidate(%d) dropped %d entries, snapshot holds %d", m, dropped, len(saved))
				}
				b.StopTimer()
				core.RestoreEntries(d, saved)
				b.StartTimer()
			}
			perEntry(b, d.SummaryCount())
		})
		miss := func(b *testing.B) {
			m := methods[0]
			saved := core.SnapshotMethod(d, m)
			d.InvalidateMethod(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dropped := d.InvalidateMethod(m); dropped != 0 {
					b.Fatalf("invalidate(%d) dropped %d entries twice", m, dropped)
				}
			}
			b.StopTimer()
			perEntry(b, d.SummaryCount())
			core.RestoreEntries(d, saved)
		}
		b.Run(fmt.Sprintf("miss/scale%g", scale), miss)
		l, err := d.NewDeltaLog()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.ApplyDelta(l); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("miss-evolved/scale%g", scale), miss)
	}
}

// sweepSootC generates soot-c at the scale, queries every local on one
// engine, and returns the engine plus up to 16 methods that ended up
// with cached summaries.
func sweepSootC(b *testing.B, scale float64) (*core.DynSum, []pag.MethodID) {
	b.Helper()
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(scale), 1)
	d := core.NewDynSum(prog.G, core.Config{}, nil)
	dst := core.NewPointsToSet()
	for n := range prog.G.NumNodes() {
		if prog.G.Node(pag.NodeID(n)).Kind != pag.Local {
			continue
		}
		err := d.Query(nil, dst, pag.NodeID(n), intstack.Empty)
		if err != nil && !errors.Is(err, core.ErrBudget) && !errors.Is(err, core.ErrDepth) {
			b.Fatal(err)
		}
	}
	seen := map[pag.MethodID]bool{}
	var methods []pag.MethodID
	for _, dr := range prog.Derefs {
		if len(methods) == 16 {
			break
		}
		if m := prog.G.Node(dr.Var).Method; !seen[m] && len(core.SnapshotMethod(d, m)) > 0 {
			seen[m] = true
			methods = append(methods, m)
		}
	}
	if d.SummaryCount() == 0 || len(methods) == 0 {
		b.Fatal("warming produced no cached summaries")
	}
	return d, methods
}
