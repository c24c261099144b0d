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
//	pagstat -snapshot <dir>                  # verify + report a persistent store
//	pagstat -openworld prog.mj               # bodyless methods of one program
//	pagstat -openworld -specs lib.spec prog.mj  # + spec coverage against it
//
// The generated-suite tables (condensation per benchmark, the evolve
// overlay state, the open-world workloads) are part of `experiments`:
// -ablations, -evolve and -openworld.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"dynsum/internal/check"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of statistics")
	validate := flag.Bool("validate", false, "run the internal/check structural validators on the input and exit non-zero on violations")
	snapshot := flag.String("snapshot", "", "open the persistent store at this directory (verifying checksums and replaying its journal) and report its state")
	openWorld := flag.Bool("openworld", false, "report the bodyless methods of the input file")
	specs := flag.String("specs", "", "with -openworld <file>: spec file to resolve against the program and report coverage for")
	flag.Parse()

	if *snapshot != "" {
		snapshotStats(*snapshot)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pagstat [-dot|-validate|-openworld [-specs file]] <file.mj|file.pag> | pagstat -snapshot <dir>")
		os.Exit(2)
	}
	prog, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pagstat:", err)
		os.Exit(1)
	}
	if *openWorld {
		openWorldFileStats(prog, *specs)
		return
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
	printStats(prog)
}

// printStats prints prog's statistics, CSR layout, condensation and site
// counts.
func printStats(prog *pag.Program) {
	fmt.Printf("program: %s\n%s\n%s\n", prog.Name, prog.G.Stats(), prog.G.Layout())
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
	fmt.Printf("store: %s\nepoch: %d\n", dir, st.Epoch())
	printStats(st.Program())
	fmt.Printf("warm summaries: %d\n", st.Engine().SummaryCount())
	fmt.Println("integrity: ok")
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
