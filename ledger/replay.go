package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
	"dynsum/internal/serve"
)

// replayRun is what replaying the request streams in process measured.
type replayRun struct {
	total core.Metrics // engine counters over every op, warm-up included
	timed core.Metrics // engine counters over timed queries only
	vars  int          // timed query variables
	fails int          // timed query variables whose result carried an error

	batch             []time.Duration // per timed query: BatchPointsToCtx
	allocs, bytes     uint64          // heap allocations during timed queries
	sessions          int
	summariesCached   int
	decode, apply     []time.Duration // per apply: delta.DecodeLog, ApplyDelta
	applyIdx          [][2]int        // (client, op) of each apply
	payloadBytes      int
	invalidated       int
	overlayFraction   []float64
	pagDecode         time.Duration
	pagFreeze         time.Duration
	nodes, reps       int
	save, open        []time.Duration
	persistBytes      []int64
	spans             []span
	laneMismatches    int
	firstLaneMismatch string
}

// replay re-runs each client's exact request stream in process, on
// per-session engines that share one context table, over the program
// decoded from the same .pag file dynsumd loaded. It checks each query's
// lane against the one dynsumd reported, and returns per-layer timings
// and counters. Heap statistics are read once per run of consecutive
// timed queries, never per call.
func replay(inst *instance, pagPath, workDir string, hr *httpRun) (*replayRun, error) {
	rr := &replayRun{}
	base, err := decodeAndFreeze(pagPath, rr)
	if err != nil {
		return nil, err
	}
	ctxs := new(intstack.Table)
	var dirty [][][]byte
	// Summed before/after snapshots around each timed query; their
	// difference is taken once at the end, keeping the loop allocation-free.
	var timedBefore, timedAfter core.Metrics
	for c, ops := range inst.streams {
		qs := make([][]core.Query, len(ops))
		timedQueries, applies := 0, 0
		for i, o := range ops {
			qs[i] = make([]core.Query, len(o.vars))
			for j, v := range o.vars {
				qs[i][j] = core.Query{Var: v, Ctx: intstack.Empty}
			}
			switch {
			case o.kind == opQuery && !o.warm:
				timedQueries++
			case o.kind == opApply:
				applies++
			}
		}
		rr.batch = slices.Grow(rr.batch, timedQueries)
		rr.spans = slices.Grow(rr.spans, timedQueries+2*applies)

		var engines []*core.DynSum
		var payloads [][][]byte
		var ms0 runtime.MemStats
		inPhase := false
		endPhase := func() {
			if inPhase {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				rr.allocs += ms1.Mallocs - ms0.Mallocs
				rr.bytes += ms1.TotalAlloc - ms0.TotalAlloc
				inPhase = false
			}
		}
		for i, o := range ops {
			timedQuery := o.kind == opQuery && !o.warm
			if !timedQuery {
				endPhase()
			}
			switch o.kind {
			case opCreate:
				engines = append(engines, core.NewDynSum(base.G, engineConfig, ctxs))
				payloads = append(payloads, nil)
			case opQuery:
				eng := engines[o.sess]
				if got, want := laneOf(eng, o.vars), hr.replies[c][i].lane; got != want {
					if rr.laneMismatches == 0 {
						rr.firstLaneMismatch = fmt.Sprintf("client %d op %d: replay lane %s, dynsumd lane %s", c, i, got, want)
					}
					rr.laneMismatches++
				}
				if !timedQuery {
					eng.BatchPointsToCtx(context.Background(), qs[i], 1)
					continue
				}
				if !inPhase {
					runtime.ReadMemStats(&ms0)
					inPhase = true
				}
				before := eng.Metrics().Snapshot()
				start := time.Now()
				res := eng.BatchPointsToCtx(context.Background(), qs[i], 1)
				took := time.Since(start)
				after := eng.Metrics().Snapshot()
				rr.batch = append(rr.batch, took)
				rr.spans = append(rr.spans, span{Name: "core.batch", Req: reqID(c, i), Start: start.UnixNano(), End: start.Add(took).UnixNano()})
				timedAfter.Add(after)
				timedBefore.Add(before)
				rr.vars += len(res)
				for _, r := range res {
					if r.Err != nil {
						rr.fails++
					}
				}
			case opApply:
				p := inst.payloads[o.epoch]
				t0 := time.Now()
				log, err := delta.DecodeLog(p)
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("replay: decode wave %d: %w", o.epoch, err)
				}
				res, err := engines[o.sess].ApplyDelta(log)
				t2 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("replay: apply wave %d: %w", o.epoch, err)
				}
				rr.decode = append(rr.decode, t1.Sub(t0))
				rr.apply = append(rr.apply, t2.Sub(t1))
				rr.applyIdx = append(rr.applyIdx, [2]int{c, i})
				rr.payloadBytes += len(p)
				rr.invalidated += res.InvalidatedSummaries
				rr.overlayFraction = append(rr.overlayFraction, res.OverlayFraction)
				rr.spans = append(rr.spans,
					span{Name: "delta.decode", Req: reqID(c, i), Start: t0.UnixNano(), End: t1.UnixNano()},
					span{Name: "delta.apply", Req: reqID(c, i), Start: t1.UnixNano(), End: t2.UnixNano()})
				payloads[o.sess] = append(payloads[o.sess], p)
			}
		}
		endPhase()
		for s, eng := range engines {
			rr.total.Add(eng.Metrics().Snapshot())
			rr.summariesCached += eng.SummaryCount()
			if len(payloads[s]) > 0 {
				dirty = append(dirty, payloads[s])
			}
		}
		rr.sessions += len(engines)
	}
	rr.timed = metricsDelta(timedAfter, timedBefore)
	if err := rr.persist(base, dirty, filepath.Join(workDir, "persist")); err != nil {
		return nil, err
	}
	return rr, nil
}

// laneOf classifies a query the way dynsumd's admission does: cheap when
// every variable's summary is already cached.
func laneOf(eng *core.DynSum, vars []pag.NodeID) string {
	for _, v := range vars {
		if !eng.SummaryCached(v) {
			return serve.LaneWhale.String()
		}
	}
	return serve.LaneCheap.String()
}

func reqID(client, op int) int64 { return int64(client)<<32 | int64(op) }

// decodeAndFreeze times pag.Decode of the program file (parse, validate
// and freeze: what dynsumd pays at startup) and, separately, Graph.Freeze
// on an unfrozen copy of the decoded graph. Each is the median of three.
func decodeAndFreeze(pagPath string, rr *replayRun) (*pag.Program, error) {
	const reps = 3
	var decode, freeze []time.Duration
	var prog *pag.Program
	for range reps {
		f, err := os.Open(pagPath)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		prog, err = pag.Decode(f)
		took := time.Since(start)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", pagPath, err)
		}
		decode = append(decode, took)
		rr.spans = append(rr.spans, span{Name: "pag.decode", Req: -1, Start: start.UnixNano(), End: start.Add(took).UnixNano()})

		g := thawedCopy(prog.G)
		start = time.Now()
		g.Freeze()
		took = time.Since(start)
		freeze = append(freeze, took)
		rr.spans = append(rr.spans, span{Name: "pag.freeze", Req: -1, Start: start.UnixNano(), End: start.Add(took).UnixNano()})
	}
	rr.pagDecode = pctDur(decode, 0.5)
	rr.pagFreeze = pctDur(freeze, 0.5)
	st := prog.G.CondenseStats()
	rr.nodes, rr.reps = st.Nodes, st.Reps
	return prog, nil
}

// thawedCopy rebuilds g as a mutable graph with identical IDs.
func thawedCopy(g *pag.Graph) *pag.Graph {
	c := pag.NewGraph()
	for i := range g.NumClasses() {
		cl := g.ClassInfo(pag.ClassID(i))
		c.AddClass(cl.Name, cl.Parent)
	}
	for i := range g.NumFields() {
		c.AddField(g.FieldName(pag.FieldID(i)))
	}
	for i := range g.NumMethods() {
		m := g.MethodInfo(pag.MethodID(i))
		c.AddMethod(m.Name, m.Class)
	}
	for i := range g.NumCallSites() {
		cs := g.CallSiteInfo(pag.CallSiteID(i))
		id := c.AddCallSite(cs.Caller, cs.Name)
		for _, t := range cs.Targets {
			c.AddCallTarget(id, t)
		}
	}
	for i := range g.NumNodes() {
		n := g.Node(pag.NodeID(i))
		c.AddNode(n.Kind, n.Method, n.Class, n.Name)
	}
	for i := range g.NumNodes() {
		for _, e := range g.Out(pag.NodeID(i)) {
			c.AddEdge(e)
		}
	}
	c.ResolveDerived()
	return c
}

// persist times persist.SaveReplay and then persist.Open (snapshot load
// plus journal replay) for each dirty session's payloads, as dynsumd's
// drain writes them. A workload with no dirty session saves the clean
// base image four times instead, which is the floor of any session's
// persistence cost.
func (rr *replayRun) persist(base *pag.Program, dirty [][][]byte, dir string) error {
	defer os.RemoveAll(dir)
	n := max(len(dirty), 4)
	for i := range n {
		var payloads [][]byte
		if len(dirty) > 0 {
			payloads = dirty[i%len(dirty)]
		}
		sdir := filepath.Join(dir, fmt.Sprint(i))
		start := time.Now()
		if err := persist.SaveReplay(sdir, base, payloads); err != nil {
			return fmt.Errorf("persist.SaveReplay: %w", err)
		}
		mid := time.Now()
		st, err := persist.Open(sdir, persist.Options{Config: engineConfig})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("persist.Open: %w", err)
		}
		if err := st.Close(); err != nil {
			return err
		}
		size, err := dirSize(sdir)
		if err != nil {
			return err
		}
		rr.save = append(rr.save, mid.Sub(start))
		rr.open = append(rr.open, end.Sub(mid))
		rr.persistBytes = append(rr.persistBytes, size)
		rr.spans = append(rr.spans,
			span{Name: "persist.save", Req: -1, Start: start.UnixNano(), End: mid.UnixNano()},
			span{Name: "persist.open", Req: -1, Start: mid.UnixNano(), End: end.UnixNano()})
		if err := os.RemoveAll(sdir); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func metricsDelta(after, before core.Metrics) core.Metrics {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for i := range a.NumField() {
		a.Field(i).SetInt(a.Field(i).Int() - b.Field(i).Int())
	}
	return after
}

// checkFaithful requires the replay's engine counters to equal dynsumd's
// /metrics engine counters exactly, field by field, and every replayed
// lane to match the lane dynsumd reported.
func (rr *replayRun) checkFaithful(snap serve.MetricsSnapshot) error {
	if rr.laneMismatches > 0 {
		return fmt.Errorf("replay lanes differ from dynsumd's on %d queries; first: %s", rr.laneMismatches, rr.firstLaneMismatch)
	}
	got, want := reflect.ValueOf(rr.total), reflect.ValueOf(snap.Engine)
	for i := range got.NumField() {
		if g, w := got.Field(i).Int(), want.Field(i).Int(); g != w {
			return fmt.Errorf("replay counter %s = %d, dynsumd /metrics engine %s = %d", got.Type().Field(i).Name, g, got.Type().Field(i).Name, w)
		}
	}
	if snap.Sessions != rr.sessions {
		return fmt.Errorf("replay has %d sessions, dynsumd %d", rr.sessions, snap.Sessions)
	}
	return nil
}
