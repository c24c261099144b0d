// Idesession: DYNSUM in the environment the paper targets (§1, §7): an IDE
// issuing many queries against a program that keeps changing. The engine
// persists its summary cache across queries; when a method is edited, the
// edit arrives as a delta epoch (engine.NewDeltaLog, RedefineMethod,
// engine.ApplyDelta), only that method's summaries are invalidated, and
// the next queries rebuild just the lost part.
//
//	go run ./examples/idesession
package main

import (
	"fmt"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/pag"
)

func main() {
	// A mid-sized synthetic program (the "project" open in the IDE).
	prof := benchgen.ProfileByNameMust("luindex").Scaled(0.05)
	prog := benchgen.Generate(prof, 42)
	g := prog.G
	fmt.Printf("project: %s\n\n", g.Stats())

	engine := core.NewDynSum(g, core.Config{}, nil)

	// The user inspects a few dozen variables (hover = points-to query).
	queries := make([]pag.NodeID, 0, 40)
	for _, c := range prog.Casts {
		queries = append(queries, c.Var)
		if len(queries) == 40 {
			break
		}
	}

	session := func(tag string) {
		before := *engine.Metrics()
		for _, q := range queries {
			engine.PointsTo(q) // budget failures are fine here
		}
		after := *engine.Metrics()
		fmt.Printf("%-22s %6d edge traversals, %4d summaries computed, %4d reused, cache=%d\n",
			tag,
			after.EdgesTraversed-before.EdgesTraversed,
			after.Summaries-before.Summaries,
			after.CacheHits-before.CacheHits,
			engine.SummaryCount())
	}

	session("cold cache:")
	session("warm cache:")

	// The user edits one library method and saves. The recompiled method
	// reaches the live engine as one delta epoch over the frozen graph
	// (redefine it, re-add its body, apply); only its summaries go stale.
	var victim pag.MethodID
	for m := 0; m < g.NumMethods(); m++ {
		if g.MethodInfo(pag.MethodID(m)).Name == "lib.set1" {
			victim = pag.MethodID(m)
		}
	}
	log, err := engine.NewDeltaLog()
	if err != nil {
		panic(err)
	}
	log.RedefineMethod(victim)
	for _, e := range methodBody(g, victim) {
		log.AddEdge(e)
	}
	res, err := engine.ApplyDelta(log)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nedit %s: %d summaries invalidated\n\n", g.MethodInfo(victim).Name, res.InvalidatedSummaries)

	session("after edit:")
	session("warm again:")

	fmt.Println("\nThe after-edit pass redoes only the invalidated method's work —")
	fmt.Println("the incremental behaviour that makes dynamic summaries suit IDEs.")
}

// methodBody lists the edges RedefineMethod drops for m: every edge
// leaving one of m's nodes, plus the exit and global-load edges entering
// them (those belong to m's call sites and statements too).
func methodBody(g *pag.Graph, m pag.MethodID) (body []pag.Edge) {
	for n := range pag.NodeID(g.NumNodes()) {
		if g.Node(n).Method == m {
			body = append(body, g.Out(n)...)
			for _, e := range g.In(n) {
				if e.Kind == pag.Exit || (e.Kind == pag.AssignGlobal && g.Node(e.Src).Method == pag.NoMethod) {
					body = append(body, e)
				}
			}
		}
	}
	return body
}
