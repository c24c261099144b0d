// Command pagstat prints Table-3-style statistics for a program: either a
// serialised PAG (.pag, from cmd/benchgen) or MiniJava source (.mj).
// Frozen graphs additionally report their freeze-time SCC condensation
// (representative count, node/edge reduction, largest SCC).
//
// Usage:
//
//	pagstat prog.mj
//	pagstat bench.pag
//	pagstat -dot prog.mj > prog.dot
//	pagstat -validate prog.mj                # deep structural validation
//	pagstat -bench [-scale 0.02] [-seed 1]   # condensation stats per benchmark
//	pagstat -snapshot <dir>                  # verify + report a persistent store
//	pagstat -openworld prog.mj               # bodyless methods of one program
//	pagstat -openworld -specs lib.spec prog.mj  # + spec coverage against it
//	pagstat -openworld                       # open-world workload table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"dynsum/internal/benchgen"
	"dynsum/internal/check"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/harness"
	"dynsum/internal/intstack"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of statistics")
	validate := flag.Bool("validate", false, "run the internal/check structural validators on the input and exit non-zero on violations")
	bench := flag.Bool("bench", false, "report condensation stats for every benchmark profile (incl. cyclic variants)")
	scale := flag.Float64("scale", 0.02, "benchmark scale factor for -bench")
	seed := flag.Int64("seed", 1, "generator seed for -bench")
	snapshot := flag.String("snapshot", "", "open the persistent store at this directory (verifying checksums and replaying its journal) and report its state")
	openWorld := flag.Bool("openworld", false, "report the open-world state: bodyless methods of the input file, or (without a file) the generated open-world workload table")
	specs := flag.String("specs", "", "with -openworld <file>: spec file to resolve against the program and report coverage for")
	flag.Parse()

	if *snapshot != "" {
		snapshotStats(*snapshot)
		return
	}
	if *openWorld {
		if flag.NArg() == 0 {
			openWorldBenchStats(*scale, *seed)
			return
		}
		prog, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		openWorldFileStats(prog, *specs)
		return
	}
	if *bench {
		benchStats(*scale, *seed)
		fmt.Println()
		evolveStats(*scale, *seed)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pagstat [-dot] <file.mj|file.pag> | pagstat -bench [-scale f] [-seed n]")
		os.Exit(2)
	}
	prog, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pagstat:", err)
		os.Exit(1)
	}
	if *dot {
		if err := prog.G.WriteDOT(os.Stdout, prog.Name); err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		return
	}
	if *validate {
		validateProgram(prog)
		return
	}
	s := prog.G.Stats()
	fmt.Printf("program: %s\n%s\n%s\n", prog.Name, s, prog.G.Layout())
	fmt.Printf("condense: %s\n", prog.G.CondenseStats())
	fmt.Printf("call sites: %d\nquery sites: %d casts, %d derefs, %d factories\n",
		prog.G.NumCallSites(), len(prog.Casts), len(prog.Derefs), len(prog.Factories))
}

// validateProgram runs the deep structural validators over the loaded
// (frozen) program: the graph invariants, then its condensation.
// Violations are reported with node and
// method names and exit non-zero, so the flag doubles as a regression
// gate for externally produced .pag files.
func validateProgram(prog *pag.Program) {
	fail := false
	report := func(stage string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "pagstat: %s:\n%v\n", stage, err)
			fail = true
		} else {
			fmt.Printf("%s: ok\n", stage)
		}
	}
	report("graph (frozen)", check.Graph(prog.G))
	report("condensation", check.Condensation(prog.G, prog.G.Condensation()))
	if fail {
		os.Exit(1)
	}
}

// snapshotStats recovers the persistent store at dir — full checksum
// verification, journal replay, structural validation — and reports what
// it holds. Any recovery failure (including the typed corruption errors)
// exits non-zero, so the flag doubles as an offline fsck for store
// directories.
func snapshotStats(dir string) {
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pagstat: open store %s:\n%v\n", dir, err)
		os.Exit(1)
	}
	defer st.Close()
	prog := st.Program()
	s := prog.G.Stats()
	fmt.Printf("store: %s\nepoch: %d\nprogram: %s\n%s\n%s\n", dir, st.Epoch(), prog.Name, s, prog.G.Layout())
	fmt.Printf("condense: %s\n", prog.G.CondenseStats())
	fmt.Printf("call sites: %d\nquery sites: %d casts, %d derefs, %d factories\n",
		prog.G.NumCallSites(), len(prog.Casts), len(prog.Derefs), len(prog.Factories))
	fmt.Printf("warm summaries: %d\n", st.Engine().SummaryCount())
	fmt.Println("integrity: ok")
}

// benchStats renders the per-benchmark condensation and memoisation table:
// every Table 3 profile plus the cyclic and diamond variants, generated at
// the given scale/seed. The spliced/written-back columns come from running
// the cold NullDeref batch on a DYNSUM engine: spliced counts cached
// sub-summaries merged into in-flight traversals, written-back the fresh
// cache entries those traversals inserted (start states included).
func benchStats(scale float64, seed int64) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tsccs\tlargest\tnodes\treps\tnode-red%\tlocal-edges\tcondensed\tedge-red%\tspliced\twritten-back")
	all := append(append(append([]benchgen.Profile{}, benchgen.Profiles...), benchgen.CyclicProfiles...), benchgen.DiamondProfiles...)
	for _, p := range all {
		prog := benchgen.Generate(p.Scaled(scale), seed)
		s := prog.G.CondenseStats()
		d := core.NewDynSum(prog.G, core.Config{}, nil)
		if _, err := clients.Run("NullDeref", prog, d, 1); err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		m := d.Metrics().Snapshot()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%.1f\t%d\t%d\n",
			p.Name, s.SCCs, s.LargestSCC, s.Nodes, s.Reps, s.NodeReduction(),
			s.LocalEdges, s.CondensedLocalEdges, s.LocalEdgeReduction(),
			m.SplicedSummaries, m.WrittenBackSummaries)
	}
	w.Flush()
}

// evolveStats renders the overlay/epoch table for the evolve workloads:
// each load order is replayed through the delta overlay on one engine
// (with the cumulative NullDeref batch between waves, so invalidation has
// warmed summaries to act on), then the overlay's cumulative state is
// reported alongside the condensation table above.
func evolveStats(scale float64, seed int64) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "evolve-benchmark\twaves\tepochs\tadded-methods\tpatched-methods\tpatched-nodes\toverlay-edges\tfrac%\tdissolved-sccs\trebuilt-reps\tinvalidated\tcompactions")
	for _, name := range benchgen.EvolveBenchmarks {
		p := benchgen.ProfileByNameMust(name).Scaled(scale)
		ev, err := benchgen.GenerateEvolve(p, seed, benchgen.DefaultEvolveWaves)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		d := core.NewDynSum(ev.Base.G, core.Config{}, nil)
		dst := core.NewPointsToSet()
		invalidated := 0
		for k := 0; k < ev.NumWaves(); k++ {
			if k > 0 {
				res, err := harness.ApplyWave(d, ev, k)
				if err != nil {
					fmt.Fprintln(os.Stderr, "pagstat:", err)
					os.Exit(1)
				}
				invalidated += res.InvalidatedSummaries
			}
			for _, q := range ev.DerefsThrough(k) {
				d.Query(nil, dst, q.Var, intstack.Empty)
			}
		}
		var s delta.Stats
		if ov := d.Overlay(); ov != nil {
			s = ov.Stats()
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\t%d\n",
			ev.Name, ev.NumWaves(), s.Epochs, s.AddedMethods, s.PatchedMethods, s.PatchedNodes,
			s.OverlayEdges, 100*s.OverlayFraction(), s.DissolvedSCCs, s.RebuiltReps,
			invalidated, d.Compactions())
	}
	w.Flush()
}

// openWorldFileStats reports the bodyless surface of one loaded program:
// every method without a body, its boundary interface, and — when a spec
// file is supplied — how it covers that surface after resolution.
func openWorldFileStats(prog *pag.Program, specPath string) {
	g := prog.G
	bodyless := g.BodylessMethods()
	fmt.Printf("program: %s\nmethods: %d\nbodyless: %d\n", prog.Name, g.NumMethods(), len(bodyless))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tformals\tret\tblob-obj")
	for _, m := range bodyless {
		info, _ := g.Bodyless(m)
		ret := "-"
		if info.Ret != pag.NoNode {
			ret = fmt.Sprintf("%d", info.Ret)
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\n", g.MethodInfo(m).Name, len(info.Formals), ret, info.BlobObj)
	}
	w.Flush()
	if specPath == "" {
		return
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pagstat:", err)
		os.Exit(1)
	}
	f, err := openworld.Parse(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pagstat:", err)
		os.Exit(1)
	}
	resolved, err := openworld.Resolve(g, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pagstat:", err)
		os.Exit(1)
	}
	covered := make(map[pag.MethodID]bool, len(resolved.Exact)+len(resolved.Blended))
	for _, m := range resolved.Exact {
		covered[m] = true
	}
	for _, m := range resolved.Blended {
		covered[m] = true
	}
	uncovered := 0
	for _, m := range bodyless {
		if !covered[m] {
			uncovered++
		}
	}
	fmt.Printf("specs: %s\n  methods spec'd: %d exact (%d lowered edges), %d blended\n  bodyless uncovered (stay blended): %d\n",
		specPath, len(resolved.Exact), len(resolved.Edges), len(resolved.Blended), uncovered)
}

// openWorldBenchStats renders the open-world workload table: every
// OpenWorldProfiles entry generated at scale/seed, its bodyless count and
// derived-spec coverage, and — after a blended engine answers the full
// NullDeref batch on the stripped graph — how many Summarize calls the
// blob model served (the blended-summary sites).
func openWorldBenchStats(scale float64, seed int64) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmethods\tbodyless\tspec-exact\tspec-blended\tspec-edges\tblended-sites\tactive-after-specs")
	for _, ow := range benchgen.OpenWorldProfiles {
		bench, err := benchgen.GenerateOpenWorld(ow, scale, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		g := bench.Stripped.G
		resolved, err := openworld.Resolve(g, bench.Specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}

		d := core.NewDynSum(g, core.Config{}, nil)
		d.EnableOpenWorld()
		if _, err := clients.Run("NullDeref", bench.Stripped, d, 1); err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		sites := d.Metrics().Snapshot().BlendedSummaries

		ds := core.NewDynSum(g, core.Config{}, nil)
		ds.EnableOpenWorld()
		if _, err := ds.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
			fmt.Fprintln(os.Stderr, "pagstat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			ow.Name(), g.NumMethods(), g.NumBodyless(), len(resolved.Exact),
			len(resolved.Blended), len(resolved.Edges), sites, len(ds.OpenWorldActive()))
	}
	w.Flush()
}

// load reads a program from MiniJava source or streams it from the
// textual PAG format.
func load(path string) (*pag.Program, error) {
	if strings.HasSuffix(path, ".mj") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, _, err := mj.Compile(path, string(data))
		return prog, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pag.Decode(f)
}
