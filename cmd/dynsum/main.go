// Command dynsum answers points-to queries and runs the paper's clients on
// a program, with a selectable engine.
//
// Usage:
//
//	dynsum -query Main.main.s1 prog.mj          # one points-to query
//	dynsum -client SafeCast -engine REFINEPTS prog.mj
//	dynsum -client all -v bench.pag             # all clients, per-site detail
//
// Engines: DYNSUM (default), NOREFINE, REFINEPTS, STASUM.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/mj"
	"dynsum/internal/pag"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

func main() {
	var (
		query   = flag.String("query", "", "qualified variable to query (Class.method.var)")
		client  = flag.String("client", "", "client to run: SafeCast, NullDeref, FactoryM or all")
		engine  = flag.String("engine", "DYNSUM", "engine: DYNSUM, NOREFINE, REFINEPTS, STASUM")
		budget  = flag.Int("budget", core.DefaultBudget, "per-query traversal budget")
		verbose = flag.Bool("v", false, "per-site client detail")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dynsum [-query v | -client c] [-engine e] <file.mj|file.pag>")
		os.Exit(2)
	}

	prog, info, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsum:", err)
		os.Exit(1)
	}
	cfg := core.Config{Budget: *budget}
	var a core.Analysis
	switch strings.ToUpper(*engine) {
	case "DYNSUM":
		a = core.NewDynSum(prog.G, cfg, nil)
	case "NOREFINE":
		a = refine.NewNoRefine(prog.G, cfg, nil)
	case "REFINEPTS":
		a = refine.NewRefinePts(prog.G, cfg, nil)
	case "STASUM":
		a = stasum.New(prog.G, cfg, nil)
	default:
		fmt.Fprintf(os.Stderr, "dynsum: unknown engine %q\n", *engine)
		os.Exit(2)
	}

	switch {
	case *query != "":
		v := pag.NoNode
		if info != nil {
			v = info.Var(*query)
		}
		if v == pag.NoNode {
			v = findByName(prog.G, *query)
		}
		if v == pag.NoNode {
			fmt.Fprintf(os.Stderr, "dynsum: no variable %q\n", *query)
			os.Exit(1)
		}
		pts, err := a.PointsTo(v)
		if err != nil {
			fmt.Printf("pts(%s) incomplete (%v): %s\n", *query, err, pts.FormatObjects(prog.G))
			return
		}
		fmt.Printf("pts(%s) = %s\n", *query, pts.FormatObjects(prog.G))
		fmt.Printf("metrics: %s\n", a.Metrics())

	case *client != "":
		names := clients.Names()
		if *client != "all" {
			names = []string{*client}
		}
		for _, name := range names {
			rep, err := clients.Run(name, prog, a, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dynsum:", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Print(rep.Summary())
			} else {
				fmt.Println(rep)
			}
		}
		fmt.Printf("metrics: %s\n", a.Metrics())

	default:
		fmt.Fprintln(os.Stderr, "dynsum: nothing to do; pass -query or -client")
		os.Exit(2)
	}
}

// load reads MiniJava source (with symbol info) or streams a serialised
// PAG.
func load(path string) (*pag.Program, *mj.Info, error) {
	if strings.HasSuffix(path, ".mj") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		return mj.Compile(path, string(data))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	prog, err := pag.Decode(f)
	return prog, nil, err
}

// findByName matches a node by its rendered name (for .pag inputs).
func findByName(g *pag.Graph, name string) pag.NodeID {
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodeString(pag.NodeID(i)) == name {
			return pag.NodeID(i)
		}
	}
	return pag.NoNode
}
