package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
	"dynsum/internal/serve"
)

// This file implements the benchmark-trajectory emitter behind
// `experiments -bench-json`: a machine-readable snapshot of the
// performance-critical workloads (warm-cache query latency, the Table 4
// DYNSUM cells, the batch engine), written as JSON so successive PRs can
// diff ns/op, allocs/op and the deterministic work counters against a
// committed baseline instead of re-deriving it from scratch.

// BenchRecord is one measured workload.
type BenchRecord struct {
	Name        string  `json:"name"`
	Scale       float64 `json:"scale"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EdgesTraversed is the deterministic work counter of one operation
	// (machine-independent, unlike ns_per_op); zero where not applicable.
	EdgesTraversed int64 `json:"edges_traversed,omitempty"`
	// SummariesCached is the summary-cache population after one operation.
	SummariesCached int64 `json:"summaries_cached,omitempty"`
	// PPTAVisits counts states expanded inside PPTA computations during
	// one operation — the counter the memoisation claim (splice-in/
	// write-back) is stated on; zero where not applicable.
	PPTAVisits int64 `json:"ppta_visits,omitempty"`
	// SummariesComputed counts PPTA runs (cache misses that actually
	// traversed) during one operation; zero where not applicable.
	SummariesComputed int64 `json:"summaries_computed,omitempty"`
	// InvalidatedSummaries counts cached summaries dropped by targeted
	// per-method invalidation during one operation (evolve workloads).
	InvalidatedSummaries int64 `json:"invalidated_summaries,omitempty"`
	// OverlayFraction is the delta overlay's final size as a fraction of
	// the base graph's edge records (evolve overlay workloads).
	OverlayFraction float64 `json:"overlay_fraction,omitempty"`
	// BlendedSummaries counts Summarize calls answered by the open-world
	// blob model during one operation; openworld/ records only.
	BlendedSummaries int64 `json:"blended_summaries,omitempty"`
	// P50Ns/P99Ns are end-to-end request latency percentiles through the
	// serving core (admission to completion), and ShedRate the fraction
	// of that lane's requests refused with *OverloadError; serve/<bench>
	// records only.
	P50Ns    int64   `json:"p50_ns,omitempty"`
	P99Ns    int64   `json:"p99_ns,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
}

// BenchSnapshot is one full emitter run.
type BenchSnapshot struct {
	Tool       string        `json:"tool"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	Records    []BenchRecord `json:"records"`
}

// BenchFile is the on-disk layout: the current snapshot plus the baseline
// it should be compared against. WriteBenchJSONFile preserves an existing
// baseline across re-runs (and promotes the previous current snapshot to
// baseline when none was recorded), so the file carries before/after
// numbers through a PR.
type BenchFile struct {
	Schema   int            `json:"schema"`
	Note     string         `json:"note,omitempty"`
	Baseline *BenchSnapshot `json:"baseline,omitempty"`
	Current  BenchSnapshot  `json:"current"`
}

// benchRunner indirects testing.Benchmark so tests can stub the (slow)
// measurement loop.
var benchRunner = testing.Benchmark

// measure runs one workload through benchRunner after collecting the
// garbage the previous workloads left behind (dead engines, their caches):
// without the collection, whichever workload happens to run while the GC
// pays down that debt absorbs assist time that has nothing to do with it,
// and the snapshot's ns/op comparisons turn on measurement order.
func measure(f func(*testing.B)) testing.BenchmarkResult {
	runtime.GC()
	return benchRunner(f)
}

func record(name string, scale float64, r testing.BenchmarkResult) BenchRecord {
	return BenchRecord{
		Name:        name,
		Scale:       scale,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunBenchJSON measures the trajectory workloads and returns the snapshot.
func RunBenchJSON(opts Options) BenchSnapshot {
	opts = opts.WithDefaults()
	snap := BenchSnapshot{
		Tool:       "experiments -bench-json",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opts.Seed,
	}

	// Warm-cache single-query latency on the Figure 2 example — the
	// engine's hot path, and the workload the allocation-regression test
	// pins at zero allocations.
	fig := fixture.BuildFigure2()
	fig.Prog.G.Freeze()
	warm := core.NewDynSum(fig.Prog.G, core.Config{}, nil)
	dst := core.NewPointsToSet()
	if err := warm.Query(nil, dst, fig.S1, intstack.Empty); err != nil {
		panic(err)
	}
	if err := warm.Query(nil, dst, fig.S2, intstack.Empty); err != nil {
		panic(err)
	}
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := warm.Query(nil, dst, fig.S2, intstack.Empty); err != nil {
				b.Fatal(err)
			}
		}
	})
	snap.Records = append(snap.Records, record("warm-query/figure2", 1, r))

	// The Table 4 DYNSUM cells on the Figure 4 benchmarks: one cold
	// engine per op running a full client, as in BenchmarkTable4.
	for _, bench := range Figure4Benchmarks {
		p := benchgen.ProfileByNameMust(bench).Scaled(opts.Scale)
		prog := benchgen.Generate(p, opts.Seed)
		for _, client := range clients.Names() {
			rec, _ := coldRecord(fmt.Sprintf("table4/%s/%s/DYNSUM", bench, client), opts.Scale, prog, opts.config(), client)
			snap.Records = append(snap.Records, rec)
		}
	}

	// Condensation effect on the cyclic profiles: one cold engine per op
	// running the NullDeref client, on the SCC-condensed overlay vs
	// forced onto the base adjacency of the same graph. The edge counters
	// carry the deterministic ≥2x claim; ns_per_op carries the wall-clock
	// one.
	for _, p := range benchgen.CyclicProfiles {
		prog := benchgen.Generate(p.Scaled(opts.Scale), opts.Seed)
		for _, mode := range []string{"condensed", "base"} {
			cfg := opts.config()
			cfg.DisableCondense = mode == "base"
			rec, _ := coldRecord(fmt.Sprintf("condense/%s/NullDeref/%s", p.Name, mode), opts.Scale, prog, cfg, "NullDeref")
			snap.Records = append(snap.Records, rec)
		}
	}

	// Cold-query records: a fresh engine answering the full NullDeref
	// batch, on the Figure 4 benchmarks and the DAG-heavy diamond
	// profiles. The deterministic counters (states expanded inside PPTA
	// runs, summaries actually computed) are what the per-state
	// memoisation claim is stated on: with splice-in/write-back a cold
	// batch's later queries land on states the earlier queries already
	// closed over, so both counters drop while answers stay identical.
	coldBenches := append([]string{}, Figure4Benchmarks...)
	for _, p := range benchgen.DiamondProfiles {
		coldBenches = append(coldBenches, p.Name)
	}
	for _, bench := range coldBenches {
		p := benchgen.ProfileByNameMust(bench).Scaled(opts.Scale)
		prog := benchgen.Generate(p, opts.Seed)
		rec, m := coldRecord(fmt.Sprintf("cold/%s/NullDeref", bench), opts.Scale, prog, opts.config(), "NullDeref")
		rec.PPTAVisits = m.PPTAVisits
		rec.SummariesComputed = m.Summaries
		snap.Records = append(snap.Records, rec)
	}

	// Warm-cache latency on a cyclic benchmark, condensed vs base path on
	// one graph: a repeated single query on an SCC member, and the full
	// NullDeref batch re-run on a fully warmed engine (where the driver's
	// tuple and frontier collapse onto representatives shows up even with
	// every summary cached).
	cyc := benchgen.Generate(benchgen.ProfileByNameMust("bloat-cyclic").Scaled(opts.Scale), opts.Seed)
	if len(cyc.Derefs) > 0 {
		qv := cyc.Derefs[0].Var
		batch, err := clients.Queries("NullDeref", cyc)
		if err != nil {
			panic(err)
		}
		for _, mode := range []string{"condensed", "base"} {
			cfg := opts.config()
			cfg.DisableCondense = mode == "base"
			d := core.NewDynSum(cyc.G, cfg, nil)
			wdst := core.NewPointsToSet()
			if err := d.Query(nil, wdst, qv, intstack.Empty); err != nil {
				panic(err)
			}
			r := measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := d.Query(nil, wdst, qv, intstack.Empty); err != nil {
						b.Fatal(err)
					}
				}
			})
			snap.Records = append(snap.Records, record("warm-query/bloat-cyclic/"+mode, opts.Scale, r))

			d.BatchPointsToCtx(nil, batch, 1) // warm every query's summaries
			r = measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.BatchPointsToCtx(nil, batch, 1)
				}
			})
			snap.Records = append(snap.Records, record("warm-batch/bloat-cyclic/NullDeref/"+mode, opts.Scale, r))
		}
	}

	// Dynamic evolution: the load-order replay, absorbed by the delta
	// overlay on one live engine vs rebuilt from scratch at every wave.
	// One op = the full replay (every wave's apply + the cumulative
	// NullDeref batch after it); the rebuild op constructs and freezes
	// every prefix and answers the same batches cold. The per-wave
	// acceptance claim (overlay beats rebuild) is the ratio of these two
	// records; invalidated_summaries and overlay_fraction carry the
	// deterministic side.
	for _, name := range benchgen.EvolveBenchmarks {
		p := benchgen.ProfileByNameMust(name).Scaled(opts.Scale)
		ev, err := benchgen.GenerateEvolve(p, opts.Seed, benchgen.DefaultEvolveWaves)
		if err != nil {
			panic(err)
		}
		var invalidated int64
		var frac float64
		r := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				invalidated, frac = 0, 0
				_, err := replayEvolve(ev, opts.config(), func(_ *core.DynSum, _ int, res core.DeltaResult, _, _ time.Duration) error {
					invalidated += int64(res.InvalidatedSummaries)
					frac = res.OverlayFraction
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		rec := record("evolve/"+ev.Name+"/overlay", opts.Scale, r)
		rec.InvalidatedSummaries = invalidated
		rec.OverlayFraction = frac
		snap.Records = append(snap.Records, rec)

		r = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < ev.NumWaves(); k++ {
					if err := rebuildWave(ev, k, opts.config()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		snap.Records = append(snap.Records, record("evolve/"+ev.Name+"/rebuild", opts.Scale, r))
	}

	// Warm start from disk vs rebuild from source: the persistence layer's
	// reason to exist in numbers. The store is prepared outside the timed
	// loops — created, warmed with the NullDeref batch and compacted so the
	// snapshot carries the summary cache. One open op is a full recovery
	// (checksum verification, CSR adoption, summary import, journal scan);
	// one rebuild op regenerates the same program from the profile and
	// freezes it, the path a restart without persistence must take.
	for _, bench := range Figure4Benchmarks {
		p := benchgen.ProfileByNameMust(bench).Scaled(opts.Scale)
		prog := benchgen.Generate(p, opts.Seed)
		dir, err := os.MkdirTemp("", "dynsum-warmstart-")
		if err != nil {
			panic(err)
		}
		st, err := persist.Create(dir, prog, persist.Options{Config: opts.config()})
		if err != nil {
			panic(err)
		}
		if _, err := clients.Run("NullDeref", prog, st.Engine(), 1); err != nil {
			panic(err)
		}
		if err := st.Compact(); err != nil {
			panic(err)
		}
		st.Close()

		r := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				re, err := persist.Open(dir, persist.Options{Config: opts.config()})
				if err != nil {
					b.Fatal(err)
				}
				re.Close()
			}
		})
		snap.Records = append(snap.Records, record(fmt.Sprintf("warmstart/%s/open", bench), opts.Scale, r))

		r = measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rebuilt := benchgen.Generate(p, opts.Seed)
				rebuilt.G.Freeze()
			}
		})
		snap.Records = append(snap.Records, record(fmt.Sprintf("warmstart/%s/rebuild", bench), opts.Scale, r))
		os.RemoveAll(dir)
	}

	// Serving-core latency: RunLoad replays each evolve benchmark through
	// a small multi-tenant server (8 sessions, warm-biased query mix,
	// waves applied mid-run) and the per-lane p50/p99 plus shed rate are
	// recorded. These are end-to-end request latencies — admission,
	// queueing, the traversal, completion — so they sit above the raw
	// engine numbers by design; the shed rate records how much of the
	// offered load the bounded queues refused rather than absorbed.
	for _, name := range benchgen.EvolveBenchmarks {
		p := benchgen.ProfileByNameMust(name).Scaled(opts.Scale)
		ev, err := benchgen.GenerateEvolve(p, opts.Seed, benchgen.DefaultEvolveWaves)
		if err != nil {
			panic(err)
		}
		srv, err := serve.NewServer(ev.Base, serve.Config{
			Workers:    2,
			QueueDepth: 8,
			Engine:     opts.config(),
		})
		if err != nil {
			panic(err)
		}
		rep, err := serve.RunLoad(context.Background(), srv, ev, serve.LoadConfig{
			Sessions:          8,
			Requests:          12,
			QueriesPerRequest: 4,
			ApplyEvery:        4,
			Deadline:          time.Second,
			WarmBias:          0.5,
			Seed:              opts.Seed,
		})
		if err != nil {
			panic(err)
		}
		if err := srv.Drain(context.Background()); err != nil {
			panic(err)
		}
		for _, lane := range slices.Sorted(maps.Keys(rep.Lanes)) {
			ls := rep.Lanes[lane]
			if ls.Completed == 0 && ls.Shed == 0 {
				continue
			}
			rec := BenchRecord{
				Name:     fmt.Sprintf("serve/%s/%s", ev.Name, lane),
				Scale:    opts.Scale,
				NsPerOp:  float64(ls.P50.Nanoseconds()),
				P50Ns:    ls.P50.Nanoseconds(),
				P99Ns:    ls.P99.Nanoseconds(),
				ShedRate: ls.ShedRate,
			}
			snap.Records = append(snap.Records, rec)
		}
	}

	// The batch engine on the Figure 4 strongest case, serial and
	// 4-worker, matching BenchmarkBatchPointsTo's fixed 0.05 scale.
	const batchScale = 0.05
	bp := benchgen.ProfileByNameMust("soot-c").Scaled(batchScale)
	bprog := benchgen.Generate(bp, opts.Seed)
	queries, err := clients.Queries("NullDeref", bprog)
	if err != nil {
		panic(err)
	}
	for _, workers := range []int{1, 4} {
		name := "batch/soot-c/NullDeref/serial"
		if workers > 1 {
			name = fmt.Sprintf("batch/soot-c/NullDeref/workers%d", workers)
		}
		var edges, summaries int64
		r := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := core.NewDynSum(bprog.G, opts.config(), nil)
				d.BatchPointsToCtx(nil, queries, workers)
				m := d.Metrics().Snapshot()
				edges = m.EdgesTraversed
				summaries = int64(d.SummaryCount())
			}
		})
		rec := record(name, batchScale, r)
		rec.EdgesTraversed = edges
		rec.SummariesCached = summaries
		snap.Records = append(snap.Records, rec)
	}

	// Open-world sweeps: a fresh engine answering the full query-var sweep
	// against the oracle graph, the stripped graph under blended blob
	// summaries, and the stripped graph with derived specs applied. The
	// edge counter carries the precision story deterministically (blended
	// traverses more because blobs over-approximate; specs claw it back).
	appendOpenWorldRecords(&snap, opts)

	return snap
}

// coldRecord measures one cold client run (runClient on a fresh DYNSUM
// engine) as the op of record name, carrying its edge counter and cache
// population, and returns the run's counters for records that carry more.
func coldRecord(name string, scale float64, prog *pag.Program, cfg core.Config, client string) (BenchRecord, core.Metrics) {
	var m core.Metrics
	var cached int
	r := measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := core.NewDynSum(prog.G, cfg, nil)
			m, cached = runClient(client, prog, d).Metrics, d.SummaryCount()
		}
	})
	rec := record(name, scale, r)
	rec.EdgesTraversed = m.EdgesTraversed
	rec.SummariesCached = int64(cached)
	return rec, m
}

// OpenWorldBenchProfiles lists the workloads the bench-JSON emitter
// measures — one whole-method and one leaf-biased deletion per base row at
// the middle fraction, keeping the snapshot's runtime bounded while both
// deletion strategies stay on the regression radar.
var OpenWorldBenchProfiles = []string{"avrora-ow25", "avrora-owleaf25", "luindex-ow25", "luindex-owleaf25"}

// appendOpenWorldRecords measures the openworld/<bench>/{oracle,blended,
// specs} trajectory records: one op = a fresh engine answering the full
// query sweep.
func appendOpenWorldRecords(snap *BenchSnapshot, opts Options) {
	for _, name := range OpenWorldBenchProfiles {
		ow, ok := benchgen.OpenWorldProfileByName(name)
		if !ok {
			panic("harness: unknown open-world bench profile " + name)
		}
		bench, resolved, err := generateOpenWorld(ow, opts)
		if err != nil {
			panic(err)
		}
		queries := allQueryVars(bench.Oracle)
		dst := core.NewPointsToSet()
		for _, mode := range openWorldModes {
			var m core.Metrics
			r := measure(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := openWorldEngine(mode, bench, resolved, opts.config())
					if err != nil {
						b.Fatal(err)
					}
					for _, v := range queries {
						dst.Reset()
						d.Query(nil, dst, v, intstack.Empty) // budget failures are part of the workload
					}
					m = d.Metrics().Snapshot()
				}
			})
			rec := record(fmt.Sprintf("openworld/%s/%s", name, mode), opts.Scale, r)
			rec.EdgesTraversed = m.EdgesTraversed
			rec.BlendedSummaries = m.BlendedSummaries
			snap.Records = append(snap.Records, rec)
		}
	}
}

// comparedCounters are the per-op figures CompareBenchFile checks against
// the baseline: the wall clock and every deterministic counter a record
// carries. For each, higher is worse.
var comparedCounters = []struct {
	name string
	of   func(BenchRecord) float64
}{
	{"ns/op", func(r BenchRecord) float64 { return r.NsPerOp }},
	{"edges_traversed", func(r BenchRecord) float64 { return float64(r.EdgesTraversed) }},
	{"ppta_visits", func(r BenchRecord) float64 { return float64(r.PPTAVisits) }},
	{"summaries_computed", func(r BenchRecord) float64 { return float64(r.SummariesComputed) }},
	{"summaries_cached", func(r BenchRecord) float64 { return float64(r.SummariesCached) }},
	{"invalidated_summaries", func(r BenchRecord) float64 { return float64(r.InvalidatedSummaries) }},
	{"blended_summaries", func(r BenchRecord) float64 { return float64(r.BlendedSummaries) }},
}

// CompareBenchFile reads a snapshot file and reports current-vs-baseline
// regressions: a warning per record and compared counter that exceeds
// its baseline by more than tolerance (a ratio; 0.2 = 20%). The CI bench
// job runs this against the committed snapshot and surfaces the warnings
// without failing the build — wall-clock numbers are machine-dependent,
// but a >20% jump in a deterministic counter is a real algorithmic
// regression signal.
func CompareBenchFile(w io.Writer, path string, tolerance float64) (warnings int, err error) {
	file, err := readBenchFile(path)
	if err != nil {
		return 0, err
	}
	if file.Baseline == nil {
		fmt.Fprintf(w, "%s: no baseline section; nothing to compare\n", path)
		return 0, nil
	}
	base := make(map[string]BenchRecord, len(file.Baseline.Records))
	for _, r := range file.Baseline.Records {
		base[r.Name] = r
	}
	compared, skipped := 0, 0
	for _, cur := range file.Current.Records {
		b, ok := base[cur.Name]
		if !ok {
			continue // new workload this PR; nothing to regress against
		}
		if b.Scale != cur.Scale {
			// Different benchmark scale: the counters are from different
			// graphs and any ratio would be meaningless.
			skipped++
			continue
		}
		compared++
		for _, c := range comparedCounters {
			was, now := c.of(b), c.of(cur)
			if was > 0 && now > was*(1+tolerance) {
				warnings++
				fmt.Fprintf(w, "WARNING %s: %s %.0f -> %.0f (+%.0f%%)\n", cur.Name, c.name, was, now, 100*(now/was-1))
			}
		}
	}
	if skipped > 0 {
		fmt.Fprintf(w, "skipped %d records measured at a different scale than their baseline\n", skipped)
	}
	fmt.Fprintf(w, "compared %d records against baseline: %d warnings\n", compared, warnings)
	return warnings, nil
}

// readBenchFile reads and parses a snapshot file.
func readBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file BenchFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &file, nil
}

// WriteBenchJSONFile measures the trajectory workloads and writes path.
// If path already holds a snapshot, its baseline section is preserved
// (or, when absent, its current section becomes the baseline), so the
// committed file records before/after numbers across a change. A file
// that exists but cannot be read or parsed is an error, and is left as
// it is: overwriting it would lose its baseline.
func WriteBenchJSONFile(path string, opts Options) error {
	file := BenchFile{Schema: 1}
	old, err := readBenchFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist): // a first run: no baseline yet
	case err != nil:
		return err
	case old.Baseline != nil:
		file.Baseline = old.Baseline
		file.Note = old.Note
	case len(old.Current.Records) > 0:
		file.Baseline = &old.Current
	}
	file.Current = RunBenchJSON(opts)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
