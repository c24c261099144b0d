package enginetest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/check"
	"dynsum/internal/core"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// This file checks that a shared summary tier is invisible: engines built
// on one tier (core.SummaryTier.NewDynSum), each replaying its own query
// order and its own delta schedule, must behave exactly like twins that
// each own a private tier (core.NewDynSum) — the same answers, the same
// errors and the same Metrics, field by field — in every engine mode.

// tierRole is one engine's delta schedule. An engine with applyEvery n
// catches up on every wave it has missed at waves divisible by n (and at
// the last wave), one ApplyDelta per wave; 0 never evolves, so the engine
// stays clean and keeps writing to the tier. compactAt names the wave
// after whose applies the engine compacts (0 never).
type tierRole struct {
	name       string
	applyEvery int
	compactAt  int
}

var tierRoles = []tierRole{
	{"clean", 0, 0},
	{"clean-too", 0, 0},
	{"evolving", 1, 0},
	{"lagging", 2, 0},
	{"compacting", 1, 2},
}

// tierEngine is one role's engine on the shared tier and its twin.
type tierEngine struct {
	role         tierRole
	shared, twin *core.DynSum
	applied      int
	compacted    bool
	vars         []pag.NodeID
}

// tierSweep replays ev on every role in every mode under cfg and returns
// how many queries failed with ErrBudget or ErrDepth. vars selects the
// query batch of the prefix an engine has applied through.
func tierSweep(t *testing.T, tag string, cfg core.Config, ev *benchgen.EvolveProgram, vars func(prefix *pag.Program) []pag.NodeID) (failed int) {
	t.Helper()
	cfg.CompactFraction = -1 // compaction only where a role asks for it
	prefixes := make([]*pag.Program, ev.NumWaves())
	for k := range prefixes {
		p, err := ev.BuildPrefix(k)
		if err != nil {
			t.Fatalf("%s: BuildPrefix(%d): %v", tag, k, err)
		}
		prefixes[k] = p
	}
	for _, mode := range engineModes {
		ctxs := new(intstack.Table)
		mcfg := mode.with(cfg)
		tier := core.NewSummaryTier(ev.Base.G, mcfg)
		engines := make([]*tierEngine, len(tierRoles))
		for i, role := range tierRoles {
			engines[i] = &tierEngine{role: role, shared: tier.NewDynSum(ctxs), twin: core.NewDynSum(ev.Base.G, mcfg, ctxs)}
		}
		for k := 0; k < ev.NumWaves(); k++ {
			wtag := fmt.Sprintf("%s %s wave %d", tag, mode.name, k)
			for i, e := range engines {
				e.step(t, ev, k, wtag)
				// Each engine asks its own order: rotated by its index,
				// reversed for odd ones.
				vs := slices.Clone(vars(prefixes[e.applied]))
				if len(vs) > 0 {
					r := i * len(vs) / len(engines)
					vs = append(vs[r:], vs[:r]...)
				}
				if i%2 == 1 {
					slices.Reverse(vs)
				}
				e.vars = vs
			}
			// Interleave the engines query by query, so tier entries one
			// engine files are there for the next engine's probes.
			for j := 0; ; j++ {
				asked := false
				for _, e := range engines {
					if j >= len(e.vars) {
						continue
					}
					asked = true
					v := e.vars[j]
					got, errG := e.shared.PointsTo(v)
					want, errW := e.twin.PointsTo(v)
					if errKind(errG) != errKind(errW) {
						t.Fatalf("%s %s: pts(%d) error %v on the shared tier, %v on the twin", wtag, e.role.name, v, errG, errW)
					}
					if errG != nil {
						failed++
						continue
					}
					if !got.Equal(want) {
						t.Fatalf("%s %s: pts(%d) = %v on the shared tier, %v on the twin", wtag, e.role.name, v, got, want)
					}
				}
				if !asked {
					break
				}
			}
			for _, e := range engines {
				e.compare(t, wtag)
			}
		}
	}
	return failed
}

// errKind classifies a query error for the twin comparison: the budget
// and depth errors by kind, anything else by its message.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBudget):
		return "budget"
	case errors.Is(err, core.ErrDepth):
		return "depth"
	}
	return err.Error()
}

// step brings e's two engines to wave k under its role's schedule.
func (e *tierEngine) step(t *testing.T, ev *benchgen.EvolveProgram, k int, tag string) {
	t.Helper()
	every := e.role.applyEvery
	if k == 0 || every == 0 || (k%every != 0 && k != ev.NumWaves()-1) {
		return
	}
	for ; e.applied < k; e.applied++ {
		for _, d := range []*core.DynSum{e.shared, e.twin} {
			log, err := d.NewDeltaLog()
			if err != nil {
				t.Fatalf("%s %s: NewDeltaLog: %v", tag, e.role.name, err)
			}
			if err := ev.WaveLog(log, e.applied+1); err != nil {
				t.Fatalf("%s %s: WaveLog: %v", tag, e.role.name, err)
			}
			if _, err := d.ApplyDelta(log); err != nil {
				t.Fatalf("%s %s: ApplyDelta: %v", tag, e.role.name, err)
			}
		}
	}
	if k == e.role.compactAt && !e.compacted {
		for _, d := range []*core.DynSum{e.shared, e.twin} {
			if err := d.Compact(); err != nil {
				t.Fatalf("%s %s: Compact: %v", tag, e.role.name, err)
			}
		}
		e.compacted = true
	}
}

// compare requires e's shared engine to equal its twin: Metrics field by
// field, the summary count, and a healthy cache.
func (e *tierEngine) compare(t *testing.T, tag string) {
	t.Helper()
	got, want := reflect.ValueOf(e.shared.Metrics().Snapshot()), reflect.ValueOf(e.twin.Metrics().Snapshot())
	for f := range got.NumField() {
		if g, w := got.Field(f).Int(), want.Field(f).Int(); g != w {
			t.Fatalf("%s %s: Metrics.%s = %d on the shared tier, %d on the twin", tag, e.role.name, got.Type().Field(f).Name, g, w)
		}
	}
	if g, w := e.shared.SummaryCount(), e.twin.SummaryCount(); g != w {
		t.Fatalf("%s %s: %d summaries on the shared tier, %d on the twin", tag, e.role.name, g, w)
	}
	if err := check.Cache(e.shared); err != nil {
		t.Fatalf("%s %s: cache: %v", tag, e.role.name, err)
	}
}

// TestTierSharedEnginesMatchPrivateTwins runs the sweep over every local
// of the cyclic and diamond workloads (SCC repair and write-back sharing)
// and of a random corpus.
func TestTierSharedEnginesMatchPrivateTwins(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	for _, name := range []string{"soot-c-cyclic", "soot-c-diamond"} {
		ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust(name).Scaled(scale), 7, benchgen.DefaultEvolveWaves)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tierSweep(t, name, bigBudget, ev, fixture.AllLocals)
	}
	for seed := int64(1100); seed < 1100+seedSpan(6); seed++ {
		prog := fixture.RandProgram(seed, fixture.RandConfig{Methods: 6, Calls: 6, Globals: 2, GlobalAssigns: 3})
		ev, err := benchgen.PartitionEvolve(prog, "rand-tier", 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tierSweep(t, fmt.Sprintf("rand seed %d", seed), bigBudget, ev, fixture.AllLocals)
	}
}

// TestTierSharedEnginesMatchPrivateTwinsTightBudget runs the sweep with a
// step budget and a context depth small enough that many queries fail
// part-way: where a budget cuts a query short, the order in which the
// driver meets the cached summaries decides how far it got, so a shared
// engine must then still fail exactly where its twin fails, with the
// same error and the same counters.
func TestTierSharedEnginesMatchPrivateTwinsTightBudget(t *testing.T) {
	scale := 0.01
	if testing.Short() {
		scale = 0.004
	}
	cfg := core.Config{Budget: 400, MaxCtxDepth: 3}
	for _, name := range []string{"soot-c-cyclic", "soot-c-diamond"} {
		ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust(name).Scaled(scale), 7, benchgen.DefaultEvolveWaves)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if failed := tierSweep(t, name, cfg, ev, fixture.AllLocals); failed == 0 {
			t.Errorf("%s: no query ran out of budget or depth; the budget is too loose to test anything", name)
		}
	}
}

// TestTierConcurrentSessions: two clean engines fill one tier with
// concurrent batches while a third applies every wave and a fourth
// applies one and compacts — the serving pattern of one daemon's
// sessions. Meant for -race; every answer must equal a private twin's.
func TestTierConcurrentSessions(t *testing.T) {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("bloat-cyclic").Scaled(0.006), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	ctxs := new(intstack.Table)
	tier := core.NewSummaryTier(ev.Base.G, cfg)
	last := ev.NumWaves() - 1
	queries := make([][]core.Query, ev.NumWaves())
	for k := range queries {
		prefix, err := ev.BuildPrefix(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range fixture.AllLocals(prefix) {
			queries[k] = append(queries[k], core.Query{Var: v, Ctx: intstack.Empty})
		}
	}
	apply := func(d *core.DynSum, k int) error {
		log, err := d.NewDeltaLog()
		if err != nil {
			return err
		}
		if err := ev.WaveLog(log, k); err != nil {
			return err
		}
		_, err = d.ApplyDelta(log)
		return err
	}

	// Each session ends at wave through[i]; compact[i] compacts after its
	// first apply.
	through := []int{0, 0, last, 1}
	compact := []bool{false, false, false, true}
	engines := make([]*core.DynSum, len(through))
	results := make([][]core.Result, len(through))
	errs := make([]error, len(through))
	for i := range engines {
		engines[i] = tier.NewDynSum(ctxs)
	}
	var wg sync.WaitGroup
	for i, d := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= through[i]; k++ {
				if k > 0 {
					if errs[i] = apply(d, k); errs[i] != nil {
						return
					}
					if compact[i] {
						if errs[i] = d.Compact(); errs[i] != nil {
							return
						}
					}
				}
				results[i] = d.BatchPointsToCtx(nil, queries[k], 2)
			}
		}()
	}
	wg.Wait()
	for i, d := range engines {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if err := check.Cache(d); err != nil {
			t.Fatalf("session %d: cache: %v", i, err)
		}
		twin := core.NewDynSum(ev.Base.G, cfg, ctxs)
		for k := 1; k <= through[i]; k++ {
			if err := apply(twin, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range results[i] {
			want, errW := twin.PointsTo(r.Var)
			compareOn(t, fmt.Sprintf("session %d", i), evolveNamer{d}, r.Var, r.Pts, want, r.Err, errW, true)
		}
	}
	if tier.Entries() == 0 {
		t.Error("the clean sessions filed nothing in the tier")
	}
}
