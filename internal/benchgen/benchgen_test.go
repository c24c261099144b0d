package benchgen_test

import (
	"math"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/pag"
)

func TestProfilesMatchPaperLocality(t *testing.T) {
	// Paper Table 3 locality column.
	want := map[string]float64{
		"jack": 87.3, "javac": 88.2, "soot-c": 89.4, "bloat": 89.9,
		"jython": 87.6, "avrora": 80.0, "batik": 81.8, "luindex": 81.7, "xalan": 83.6,
	}
	for _, p := range benchgen.Profiles {
		if got := p.Locality(); math.Abs(got-want[p.Name]) > 0.15 {
			t.Errorf("%s: profile locality %.1f%%, paper %.1f%%", p.Name, got, want[p.Name])
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := benchgen.ProfileByName("xalan"); !ok {
		t.Error("xalan missing")
	}
	if _, ok := benchgen.ProfileByName("quake"); ok {
		t.Error("unknown profile found")
	}
}

func TestGeneratedGraphValid(t *testing.T) {
	for _, p := range benchgen.Profiles {
		prog := benchgen.Generate(p.Scaled(0.01), 42)
		if err := prog.G.Validate(); err != nil {
			t.Errorf("%s: invalid PAG: %v", p.Name, err)
		}
	}
}

func TestGeneratedStatsTrackProfile(t *testing.T) {
	p := benchgen.ProfileByNameMust("jack").Scaled(0.02)
	prog := benchgen.Generate(p, 1)
	s := prog.G.Stats()

	within := func(name string, got, want, tolPct int) {
		t.Helper()
		if want == 0 {
			return
		}
		diff := math.Abs(float64(got-want)) / float64(want) * 100
		if diff > float64(tolPct) {
			t.Errorf("%s: got %d, want %d (±%d%%)", name, got, want, tolPct)
		}
	}
	within("objects", s.Objects, p.Objects, 25)
	within("assign", s.Edges[pag.Assign], p.Assign, 25)
	within("load", s.Edges[pag.Load], p.Load, 25)
	within("store", s.Edges[pag.Store], p.Store, 25)
	within("entry", s.Edges[pag.Entry], p.Entry, 25)
	within("exit", s.Edges[pag.Exit], p.Exit, 25)

	// Locality must land near the paper's value (87.3% for jack).
	if loc := s.Locality(); math.Abs(loc-87.3) > 6 {
		t.Errorf("locality = %.1f%%, want ~87.3%%", loc)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	p := benchgen.ProfileByNameMust("avrora").Scaled(0.02)
	a := benchgen.Generate(p, 7)
	b := benchgen.Generate(p, 7)
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("non-deterministic generation: %d/%d nodes, %d/%d edges",
			a.G.NumNodes(), b.G.NumNodes(), a.G.NumEdges(), b.G.NumEdges())
	}
	c := benchgen.Generate(p, 8)
	if a.G.NumEdges() == c.G.NumEdges() && a.G.NumNodes() == c.G.NumNodes() {
		t.Log("different seeds produced identical sizes (possible but suspicious)")
	}
}

func TestQueryCountsMatchProfile(t *testing.T) {
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.02)
	prog := benchgen.Generate(p, 3)
	if len(prog.Casts) != p.QSafeCast {
		t.Errorf("casts = %d, want %d", len(prog.Casts), p.QSafeCast)
	}
	if len(prog.Derefs) != p.QNullDeref {
		t.Errorf("derefs = %d, want %d", len(prog.Derefs), p.QNullDeref)
	}
	if len(prog.Factories) != p.QFactoryM {
		t.Errorf("factories = %d, want %d", len(prog.Factories), p.QFactoryM)
	}
}

// TestClientsOnGenerated runs all three clients with DYNSUM on a small
// generated benchmark: queries must produce a healthy mix of verdicts and
// mostly complete within budget.
func TestClientsOnGenerated(t *testing.T) {
	p := benchgen.ProfileByNameMust("luindex").Scaled(0.01)
	prog := benchgen.Generate(p, 5)
	d := core.NewDynSum(prog.G, core.Config{}, nil)

	for _, name := range clients.Names() {
		rep, err := clients.Run(name, prog, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Queries == 0 {
			t.Errorf("%s: no queries", name)
			continue
		}
		if rep.Unknown*2 > rep.Queries {
			t.Errorf("%s: too many unknowns: %s", name, rep.String())
		}
		if rep.Proven == 0 {
			t.Errorf("%s: nothing proven: %s", name, rep.String())
		}
	}
}

// TestViolationMixture: the generator must produce both proven and
// violated sites for SafeCast and NullDeref (the clients need something to
// find).
func TestViolationMixture(t *testing.T) {
	p := benchgen.ProfileByNameMust("bloat").Scaled(0.01)
	prog := benchgen.Generate(p, 11)
	d := core.NewDynSum(prog.G, core.Config{}, nil)

	sc := clients.SafeCast(prog, d)
	if sc.Violations == 0 {
		t.Errorf("SafeCast found no violations: %s", sc.String())
	}
	nd := clients.NullDeref(prog, d)
	if nd.Violations == 0 {
		t.Errorf("NullDeref found no violations: %s", nd.String())
	}
	fm := clients.FactoryM(prog, d)
	if fm.Violations == 0 {
		t.Errorf("FactoryM found no violations: %s", fm.String())
	}
}

// TestSummaryReuseOnGenerated: the generated workload must actually
// exercise DYNSUM's cache (high hit rate after warm-up) — otherwise the
// Table 4 experiment would be measuring nothing.
func TestSummaryReuseOnGenerated(t *testing.T) {
	p := benchgen.ProfileByNameMust("jack").Scaled(0.05)
	prog := benchgen.Generate(p, 9)
	d := core.NewDynSum(prog.G, core.Config{}, nil)
	clients.SafeCast(prog, d)
	clients.NullDeref(prog, d)
	m := d.Metrics()
	if m.CacheHits == 0 {
		t.Fatal("no cache hits across a whole client run")
	}
	hitRate := float64(m.CacheHits) / float64(m.CacheHits+m.CacheMisses)
	if hitRate < 0.3 {
		t.Errorf("cache hit rate %.2f, want >= 0.3 (workload has no reuse)", hitRate)
	}
}

// TestDiamondProfilesAreAcyclicAndOverlapping pins the shape the diamond
// variants exist for: a valid, SCC-free graph (condensation has nothing to
// collapse) whose NullDeref query sites lie densely on shared copy webs,
// so their backwards closures overlap heavily.
func TestDiamondProfilesAreAcyclicAndOverlapping(t *testing.T) {
	if len(benchgen.DiamondProfiles) != 3 {
		t.Fatalf("DiamondProfiles = %d, want 3", len(benchgen.DiamondProfiles))
	}
	for _, p := range benchgen.DiamondProfiles {
		prog := benchgen.Generate(p.Scaled(0.01), 42)
		if err := prog.G.Validate(); err != nil {
			t.Fatalf("%s: invalid PAG: %v", p.Name, err)
		}
		s := prog.G.CondenseStats()
		if s.SCCs != 0 {
			t.Errorf("%s: %d assign SCCs in a diamond profile, want 0 (largest %d)",
				p.Name, s.SCCs, s.LargestSCC)
		}
		if len(prog.Derefs) == 0 {
			t.Fatalf("%s: no deref sites", p.Name)
		}
		// Overlap proxy: distinct deref variables per method must exceed
		// one on average — many sites share one method-wide copy DAG.
		perMethod := map[pag.MethodID]int{}
		seen := map[pag.NodeID]bool{}
		for _, d := range prog.Derefs {
			if seen[d.Var] {
				continue
			}
			seen[d.Var] = true
			perMethod[prog.G.Node(d.Var).Method]++
		}
		shared := 0
		for _, n := range perMethod {
			if n >= 2 {
				shared += n
			}
		}
		if shared*2 < len(seen) {
			t.Errorf("%s: only %d of %d distinct deref sites share a method's web",
				p.Name, shared, len(seen))
		}
	}
}

// TestDiamondGenerationDeterministic: same profile and seed, same program.
func TestDiamondGenerationDeterministic(t *testing.T) {
	p := benchgen.ProfileByNameMust("soot-c-diamond").Scaled(0.005)
	a := benchgen.Generate(p, 9)
	b := benchgen.Generate(p, 9)
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("nondeterministic generation: %d/%d nodes, %d/%d edges",
			a.G.NumNodes(), b.G.NumNodes(), a.G.NumEdges(), b.G.NumEdges())
	}
	if len(a.Derefs) != len(b.Derefs) {
		t.Fatalf("nondeterministic deref sites: %d vs %d", len(a.Derefs), len(b.Derefs))
	}
}
