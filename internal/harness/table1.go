package harness

import (
	"fmt"
	"strings"

	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// Table1Result carries the reproduction of paper Table 1: the DYNSUM
// driver traces for the queries s1 and s2 on the Figure 2 program.
type Table1Result struct {
	S1Steps, S2Steps       int // driver tuples visited per query
	S1Summaries            int // PPTA summaries computed during s1
	S2Summaries            int // PPTA summaries computed during s2 (fewer: reuse)
	S2Reused               int // cache hits during s2
	S1Trace, S2Trace       []core.TraceEvent
	S1PointsTo, S2PointsTo string
	Graph                  *pag.Graph // the Figure 2 program the traces name
}

// RunTable1 executes the two queries of the motivating example with
// tracing enabled and returns the step structure the paper's Table 1
// reports. The exact step count differs from the paper's 23/15 because the
// paper prints only the edges "that lead directly to the points-to
// targets" while this trace is the full exploration; the reproduced claims
// are the ordering (s2 cheaper than s1) and the reuse markers.
func RunTable1() *Table1Result {
	f := fixture.BuildFigure2()
	d := core.NewDynSum(f.Prog.G, core.Config{}, nil)
	res := &Table1Result{Graph: f.Prog.G}

	var trace []core.TraceEvent
	d.Tracer = func(ev core.TraceEvent) { trace = append(trace, ev) }

	m0 := *d.Metrics()
	pts1, err := d.PointsTo(f.S1)
	if err != nil {
		panic(err)
	}
	m1 := *d.Metrics()
	res.S1Trace = trace
	res.S1PointsTo = pts1.FormatObjects(f.Prog.G)

	trace = nil
	pts2, err := d.PointsTo(f.S2)
	if err != nil {
		panic(err)
	}
	m2 := *d.Metrics()
	res.S2Trace = trace
	res.S2PointsTo = pts2.FormatObjects(f.Prog.G)

	res.S1Steps = int(m1.TuplesVisited - m0.TuplesVisited)
	res.S2Steps = int(m2.TuplesVisited - m1.TuplesVisited)
	res.S1Summaries = int(m1.Summaries - m0.Summaries)
	res.S2Summaries = int(m2.Summaries - m1.Summaries)
	res.S2Reused = int(m2.CacheHits - m1.CacheHits)
	return res
}

// Table1 lays the traces out as paper Table 1, one row per driver step
// of either query.
func Table1(Options) (Table, error) {
	res := RunTable1()
	g := res.Graph
	t := Table{
		Title: []string{
			"Table 1: DYNSUM traversals answering the points-to queries for s1 and s2",
			"(full driver trace; the paper prints only the productive path)",
		},
		Header: []string{"query", "step", "v", "f", "s", "c", "note"},
		Footer: []string{
			"points-to(s1) = " + res.S1PointsTo,
			"points-to(s2) = " + res.S2PointsTo,
			fmt.Sprintf("s1: %d driver steps, %d summaries computed", res.S1Steps, res.S1Summaries),
			fmt.Sprintf("s2: %d driver steps, %d summaries computed, %d reused",
				res.S2Steps, res.S2Summaries, res.S2Reused),
		},
	}
	for qi, tr := range [][]core.TraceEvent{res.S1Trace, res.S2Trace} {
		step := 0
		for _, ev := range tr {
			if ev.Kind != "tuple" {
				continue
			}
			note := ""
			if ev.Reused {
				note = "reuse"
			}
			t.addf("s%d\t%d\t%s\t%s\t%s\t%s\t%s", qi+1,
				step, g.NodeString(ev.Node), formatFields(g, ev.Fields),
				ev.State, formatCtx(g, ev.Ctx), note)
			step++
		}
	}
	return t, nil
}

// formatFields renders a field stack paper-style: [arr,elems] with the
// paper's bottom-to-top order (pushes append right).
func formatFields(g *pag.Graph, fields []intstack.Sym) string {
	var parts []string
	for i := len(fields) - 1; i >= 0; i-- { // Slice is top-first; reverse
		parts = append(parts, g.FieldName(pag.FieldID(fields[i])))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// formatCtx renders a context stack using call-site line labels, paper
// style: [32,22] (top first).
func formatCtx(g *pag.Graph, ctx []intstack.Sym) string {
	var parts []string
	for _, s := range ctx {
		name := g.CallSiteInfo(pag.CallSiteID(s)).Name
		if i := strings.LastIndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		parts = append(parts, name)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
