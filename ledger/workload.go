package main

import (
	"fmt"
	"math/rand"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/pag"
)

// numClients is the number of closed-loop clients: one per core of the
// 2-core reference host, each a goroutine with one keep-alive connection
// that waits for every reply before sending the next request, as IDE and
// analysis callers do.
const numClients = 2

// engineConfig is what dynsumd gives every session engine when started
// with no flags; the in-process replay and the oracle use the same.
var engineConfig = core.Config{Budget: core.DefaultBudget}

type opKind uint8

const (
	opCreate opKind = iota // POST /v1/sessions
	opQuery                // POST /v1/query
	opApply                // POST /v1/apply
)

// op is one request of a client's stream. Streams are fixed by the seed
// and the request count, so two runs with the same arguments send the
// same requests in the same order and the engine's work counters repeat.
type op struct {
	kind opKind
	sess int // client-local session index
	// epoch is the number of waves the session has applied when the op
	// runs; for opApply it is the wave being applied.
	epoch int
	vars  []pag.NodeID // opQuery only
	warm  bool         // untimed warm-up, sent before the timed phase
}

// instance is one workload materialised for a seed.
type instance struct {
	prog    *pag.Program // the program dynsumd serves
	streams [numClients][]op
	// payloads[k] is wave k as a wire-encoded delta.Log (index 0 unused).
	// A workload with waves gets a -state-dir, so its drain persists the
	// sessions they made dirty.
	payloads [][]byte
	// oracleProg builds, from scratch, the program as of an epoch: the
	// answer oracle's input, independent of the daemon's overlay.
	oracleProg func(epoch int) (*pag.Program, error)
}

// workload is one traffic mix. rate is timed query requests per client
// per second of run budget, calibrated on a 2-core host so the timed
// phase lasts about the requested seconds; runs stay count-bounded so a
// faster program finishes the same work sooner instead of doing more.
type workload struct {
	name  string
	why   string
	rate  float64
	build func(seed int64, scale float64, requests int) (*instance, error)
}

var workloads = []workload{
	{
		name:  "warm-lookup",
		why:   "repeated 4-var queries on a warmed 256-site hot set: cheap lane, cache hits, so dynsumd's HTTP/JSON layer dominates",
		rate:  6000,
		build: buildWarmLookup,
	},
	{
		name:  "cold-sweep",
		why:   "64-var sweeps over all locals, each sweep in a fresh session: whale lane, summaries computed, so driver, PPTA and cache dominate",
		rate:  860,
		build: buildColdSweep,
	},
	{
		name:  "evolve-replay",
		why:   "queries interleaved with 120 delta applies on a cyclic program, then a persisting drain: delta, invalidation, persist",
		rate:  4900,
		build: buildEvolveReplay,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	hotSetSize     = 256
	warmBatch      = 4
	sweepBatch     = 64
	evolveWaves    = 16
	evolveSessions = 4
	evolveWarmBias = 0.5 // as in serve.RunLoad
)

// clientRand gives each client of a seed its own reproducible stream.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

func profile(name string, scale float64) benchgen.Profile {
	return benchgen.ProfileByNameMust(name).Scaled(scale)
}

func staticOracle(prog *pag.Program) func(int) (*pag.Program, error) {
	return func(int) (*pag.Program, error) { return prog, nil }
}

func buildWarmLookup(seed int64, scale float64, requests int) (*instance, error) {
	prog := benchgen.Generate(profile("soot-c", scale), seed)
	sites := distinctDerefs(prog.Derefs)
	inst := &instance{prog: prog, oracleProg: staticOracle(prog)}
	for c := range inst.streams {
		rng := clientRand(seed, c)
		perm := rng.Perm(len(sites))
		hot := make([]pag.NodeID, min(hotSetSize, len(sites)))
		for i := range hot {
			hot[i] = sites[perm[i]]
		}
		ops := []op{{kind: opCreate, warm: true}}
		for i := 0; i < len(hot); i += warmBatch {
			ops = append(ops, op{kind: opQuery, vars: hot[i:min(i+warmBatch, len(hot))], warm: true})
		}
		for range requests {
			vars := make([]pag.NodeID, warmBatch)
			for j := range vars {
				vars[j] = hot[rng.Intn(len(hot))]
			}
			ops = append(ops, op{kind: opQuery, vars: vars})
		}
		inst.streams[c] = ops
	}
	return inst, nil
}

func buildColdSweep(seed int64, scale float64, requests int) (*instance, error) {
	prog := benchgen.Generate(profile("soot-c", scale), seed)
	var locals []pag.NodeID
	for n := range prog.G.NumNodes() {
		if prog.G.Node(pag.NodeID(n)).Kind == pag.Local {
			locals = append(locals, pag.NodeID(n))
		}
	}
	inst := &instance{prog: prog, oracleProg: staticOracle(prog)}
	for c := range inst.streams {
		rng := clientRand(seed, c)
		order := make([]pag.NodeID, len(locals))
		for i, p := range rng.Perm(len(locals)) {
			order[i] = locals[p]
		}
		order, err := answerable(prog.G, order)
		if err != nil {
			return nil, err
		}
		var ops []op
		for sess, sent := 0, 0; sent < requests; sess++ {
			ops = append(ops, op{kind: opCreate, sess: sess})
			for i := 0; i < len(order) && sent < requests; i += sweepBatch {
				ops = append(ops, op{kind: opQuery, sess: sess, vars: order[i:min(i+sweepBatch, len(order))]})
				sent++
			}
		}
		inst.streams[c] = ops
	}
	return inst, nil
}

// answerable drops from a sweep order the locals a fresh session,
// querying in that order, cannot answer within the traversal budget, so
// that no request of the workload fails. A client repeats its one order
// in every fresh session, so each sweep does exactly the work checked
// here. Dropping a query changes what later ones find cached, so the
// check repeats until nothing is dropped.
func answerable(g *pag.Graph, order []pag.NodeID) ([]pag.NodeID, error) {
	const maxPasses = 8
	for range maxPasses {
		eng := core.NewDynSum(g, engineConfig, nil)
		kept := make([]pag.NodeID, 0, len(order))
		for _, v := range order {
			if _, err := eng.PointsTo(v); err == nil {
				kept = append(kept, v)
			}
		}
		if len(kept) == len(order) {
			return order, nil
		}
		order = kept
	}
	return nil, fmt.Errorf("cold-sweep: sweep order still loses queries to the budget after %d passes", maxPasses)
}

func buildEvolveReplay(seed int64, scale float64, requests int) (*instance, error) {
	ev, err := benchgen.GenerateEvolve(profile("bloat-cyclic", scale), seed, evolveWaves)
	if err != nil {
		return nil, err
	}
	inst := &instance{prog: ev.Base, oracleProg: ev.BuildPrefix}
	inst.payloads = make([][]byte, ev.NumWaves())
	m, n, cs := 0, 0, 0
	for k := range ev.NumWaves() {
		if k > 0 {
			log := delta.NewLog(m, n, cs)
			if err := ev.WaveLog(log, k); err != nil {
				return nil, err
			}
			inst.payloads[k] = log.AppendBinary(nil)
		}
		wv := &ev.Waves[k]
		m, n, cs = m+len(wv.Methods), n+len(wv.Nodes), cs+len(wv.CallSites)
	}

	perEpoch := max(1, requests/(evolveSessions*ev.NumWaves()))
	derefs := make([][]pag.DerefSite, ev.NumWaves())
	for e := range derefs {
		derefs[e] = ev.DerefsThrough(e)
		if len(derefs[e]) == 0 {
			return nil, fmt.Errorf("evolve-replay: no query sites through wave %d", e)
		}
	}
	for c := range inst.streams {
		rng := clientRand(seed, c)
		var ops []op
		for sess := range evolveSessions {
			ops = append(ops, op{kind: opCreate, sess: sess})
			var history []pag.NodeID
			for e := range ev.NumWaves() {
				for range perEpoch {
					vars := make([]pag.NodeID, warmBatch)
					for j := range vars {
						if len(history) > 0 && rng.Float64() < evolveWarmBias {
							vars[j] = history[rng.Intn(len(history))]
						} else {
							vars[j] = derefs[e][rng.Intn(len(derefs[e]))].Var
						}
					}
					history = append(history, vars...)
					ops = append(ops, op{kind: opQuery, sess: sess, epoch: e, vars: vars})
				}
				if e+1 < ev.NumWaves() {
					ops = append(ops, op{kind: opApply, sess: sess, epoch: e + 1})
				}
			}
		}
		inst.streams[c] = ops
	}
	return inst, nil
}

func distinctDerefs(sites []pag.DerefSite) []pag.NodeID {
	seen := make(map[pag.NodeID]bool, len(sites))
	var out []pag.NodeID
	for _, s := range sites {
		if !seen[s.Var] {
			seen[s.Var] = true
			out = append(out, s.Var)
		}
	}
	return out
}
