package harness

import (
	"fmt"
	"slices"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
)

// This file runs the open-world evaluation (`experiments -openworld`): for
// each generated open-world workload the full-body oracle is compared
// against the stripped program answered under blended summaries and under
// derived specs. Three axes are reported per workload:
//
//   - soundness: the number of queries whose open-world answer failed to
//     cover the oracle (must be zero; an oracle object allocated inside a
//     deleted method counts as covered by that method's blob object);
//   - precision: the average answer size relative to the oracle — how much
//     the conservative blob model over-approximates, and how much of that
//     the specs win back;
//   - speed: wall-clock and the deterministic traversed-edge counter for
//     the full query sweep.

// OpenWorldCell is one (workload, mode) measurement.
type OpenWorldCell struct {
	Queries    int           // answered queries
	Skipped    int           // conservative failures (budget/depth)
	Unsound    int           // answered queries that dropped an oracle object
	AvgObjects float64       // mean objects per answered query
	Time       time.Duration // full sweep wall clock
	Edges      int64         // PAG edges traversed (deterministic)
	Blended    int64         // Summarize calls the blob model answered (deterministic)
}

// OpenWorldRow is one open-world workload: the oracle sweep plus the two
// open-world modes on the stripped counterpart.
type OpenWorldRow struct {
	Bench       string
	Methods     int                      // methods of the stripped program
	Bodyless    int                      // its bodyless methods
	Deleted     int                      // stripped methods
	SpecExact   int                      // derived specs with exact flow rules
	SpecBlended int                      // derived specs that fell back to blended
	SpecEdges   int                      // edges the exact specs lower to
	Active      int                      // methods still blended once the specs apply
	Cells       map[string]OpenWorldCell // "oracle", "blended", "specs"
}

// openWorldModes lists the per-workload sweep modes in report order.
var openWorldModes = []string{"oracle", "blended", "specs"}

// allQueryVars returns the deduplicated query variables of every client.
func allQueryVars(prog *pag.Program) []pag.NodeID {
	seen := map[pag.NodeID]bool{}
	var out []pag.NodeID
	add := func(v pag.NodeID) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, c := range prog.Casts {
		add(c.Var)
	}
	for _, d := range prog.Derefs {
		add(d.Var)
	}
	for _, f := range prog.Factories {
		add(f.Ret)
	}
	return out
}

// owSweep answers every query on eng, comparing each answer against the
// oracle set when oracleSets is non-nil.
func owSweep(eng *core.DynSum, queries []pag.NodeID, oracleSets map[pag.NodeID]*core.PointsToSet,
	cover map[pag.MethodID]pag.NodeID, oracleG *pag.Graph) OpenWorldCell {

	var cell OpenWorldCell
	before := eng.Metrics().Snapshot()
	start := time.Now()
	totalObjs := 0
	for _, v := range queries {
		pts, err := eng.PointsTo(v)
		if err != nil {
			cell.Skipped++
			continue
		}
		cell.Queries++
		totalObjs += len(pts.Objects())
		if oracleSets == nil {
			continue
		}
		want, ok := oracleSets[v]
		if !ok {
			continue // oracle skipped this query conservatively
		}
		for _, o := range want.Objects() {
			if pts.HasObject(o) {
				continue
			}
			if blob, deleted := cover[oracleG.Node(o).Method]; deleted && pts.HasObject(blob) {
				continue
			}
			cell.Unsound++
			break
		}
	}
	cell.Time = time.Since(start)
	after := eng.Metrics().Snapshot()
	cell.Edges = after.EdgesTraversed - before.EdgesTraversed
	cell.Blended = after.BlendedSummaries - before.BlendedSummaries
	if cell.Queries > 0 {
		cell.AvgObjects = float64(totalObjs) / float64(cell.Queries)
	}
	return cell
}

// generateOpenWorld generates one open-world workload and resolves its
// derived specs against the stripped graph.
func generateOpenWorld(ow benchgen.OWProfile, opts Options) (*benchgen.OpenWorldBench, *openworld.Resolved, error) {
	bench, err := benchgen.GenerateOpenWorld(ow, opts.Scale, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	resolved, err := openworld.Resolve(bench.Stripped.G, bench.Specs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ow.Name(), err)
	}
	return bench, resolved, nil
}

// openWorldEngine builds the fresh engine one sweep mode runs on: the
// oracle's full bodies closed-world, the stripped graph under blended
// summaries, or the stripped graph in open-world mode with the derived
// spec edges applied, so exact rules serve spec'd methods and blended
// blobs cover the derivation's fallbacks.
func openWorldEngine(mode string, bench *benchgen.OpenWorldBench, resolved *openworld.Resolved, cfg core.Config) (*core.DynSum, error) {
	if mode == "oracle" {
		return core.NewDynSum(bench.Oracle.G, cfg, nil), nil
	}
	d := core.NewDynSum(bench.Stripped.G, cfg, nil)
	d.EnableOpenWorld()
	if mode == "specs" {
		if _, err := d.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// RunOpenWorld measures every open-world workload at the options' scale.
func RunOpenWorld(opts Options) ([]OpenWorldRow, error) {
	opts = opts.WithDefaults()
	var rows []OpenWorldRow
	for _, ow := range benchgen.OpenWorldProfiles {
		if len(opts.Benchmarks) > 0 && !slices.Contains(opts.Benchmarks, ow.Base) && !slices.Contains(opts.Benchmarks, ow.Name()) {
			continue
		}
		bench, resolved, err := generateOpenWorld(ow, opts)
		if err != nil {
			return nil, err
		}
		engines := make(map[string]*core.DynSum, len(openWorldModes))
		for _, mode := range openWorldModes {
			if engines[mode], err = openWorldEngine(mode, bench, resolved, opts.config()); err != nil {
				return nil, fmt.Errorf("%s: %w", ow.Name(), err)
			}
		}

		cover := make(map[pag.MethodID]pag.NodeID, len(bench.Deleted))
		for _, m := range bench.Deleted {
			info, ok := bench.Stripped.G.Bodyless(m)
			if !ok {
				return nil, fmt.Errorf("%s: deleted method %d not bodyless", ow.Name(), m)
			}
			cover[m] = info.BlobObj
		}

		queries := allQueryVars(bench.Oracle)
		g := bench.Stripped.G
		row := OpenWorldRow{
			Bench:       ow.Name(),
			Methods:     g.NumMethods(),
			Bodyless:    g.NumBodyless(),
			Deleted:     len(bench.Deleted),
			SpecExact:   len(resolved.Exact),
			SpecBlended: len(resolved.Blended),
			SpecEdges:   len(resolved.Edges),
			Active:      len(engines["specs"].OpenWorldActive()),
			Cells:       make(map[string]OpenWorldCell, len(openWorldModes)),
		}

		oracle := engines["oracle"]
		row.Cells["oracle"] = owSweep(oracle, queries, nil, nil, nil)
		oracleSets := make(map[pag.NodeID]*core.PointsToSet, len(queries))
		for _, v := range queries {
			if pts, err := oracle.PointsTo(v); err == nil {
				oracleSets[v] = pts
			}
		}
		for _, mode := range openWorldModes[1:] {
			row.Cells[mode] = owSweep(engines[mode], queries, oracleSets, cover, bench.Oracle.G)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// OpenWorld tabulates RunOpenWorld one row per (workload, mode), each
// row carrying its workload's program and spec figures.
func OpenWorld(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	rows, err := RunOpenWorld(opts)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: []string{
			fmt.Sprintf("Open-world evaluation (scale %.3f, budget %d)", opts.Scale, opts.Budget),
			"modes: oracle = full bodies; blended = deleted bodies, blob summaries; specs = derived specs applied",
			"",
		},
		Header: []string{"workload", "methods", "bodyless", "deleted", "spec-exact", "spec-blended", "spec-edges",
			"active-after-specs", "mode", "queries", "skipped", "unsound", "avg-objs", "blended", "time(ms)", "edges"},
	}
	totalUnsound := 0
	for _, r := range rows {
		for _, mode := range openWorldModes {
			c := r.Cells[mode]
			unsound := "-"
			if mode != "oracle" {
				unsound = fmt.Sprint(c.Unsound)
				totalUnsound += c.Unsound
			}
			t.addf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%s\t%.2f\t%d\t%s\t%d",
				r.Bench, r.Methods, r.Bodyless, r.Deleted, r.SpecExact, r.SpecBlended, r.SpecEdges, r.Active,
				mode, c.Queries, c.Skipped, unsound, c.AvgObjects, c.Blended, ms(c.Time), c.Edges)
		}
	}
	if totalUnsound > 0 {
		t.Footer = []string{"", fmt.Sprintf("UNSOUND: %d open-world answers dropped oracle objects", totalUnsound)}
	} else {
		t.Footer = []string{"", "soundness holds: every open-world answer covers the oracle (blob-for-deleted-allocation)"}
	}
	return t, nil
}
