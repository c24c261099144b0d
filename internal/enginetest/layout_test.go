package enginetest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/delta"
	"dynsum/internal/fixture"
	"dynsum/internal/pag"
)

// This file pins the frozen layout of every program family the engines
// see: the CSR arrays and their partition boundaries, the condensation,
// the by-field Load/Store lists and the per-kind edge counts. The engines'
// budgeted work counts depend on the order of edges within each span, so
// any change to how a graph is built, deduplicated or laid out shows here
// as a changed digest, whatever path (builder, decoder, strip, evolve
// prefix or overlay compaction) produced the graph.

// layoutDigest hashes g's frozen image plus the indexes the image does not
// carry, freezing g first.
func layoutDigest(t *testing.T, g *pag.Graph) string {
	t.Helper()
	g.Freeze()
	img, err := g.Image()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", *img)
	for f := 0; f < g.NumFields(); f++ {
		fmt.Fprintf(h, "field %d loads %v stores %v\n", f, g.LoadsOf(pag.FieldID(f)), g.StoresOf(pag.FieldID(f)))
	}
	for k := 0; k < pag.NumEdgeKinds; k++ {
		fmt.Fprintf(h, "kind %d count %d\n", k, g.EdgeKindCount(pag.EdgeKind(k)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedLayouts builds every pinned program, keyed by a stable name.
func pinnedLayouts(t *testing.T) map[string]*pag.Graph {
	t.Helper()
	gs := map[string]*pag.Graph{
		"figure2":              fixture.BuildFigure2().Prog.G,
		"micro/assignchain":    fixture.AssignChain(5).Prog.G,
		"micro/fieldpair":      fixture.FieldPair().Prog.G,
		"micro/twofields":      fixture.TwoFields().Prog.G,
		"micro/callreturn":     fixture.CallReturn().Prog.G,
		"micro/ctxsep":         fixture.ContextSeparation().Prog.G,
		"micro/globalflow":     fixture.GlobalFlow().Prog.G,
		"micro/ptcycle":        fixture.PointsToCycle().Prog.G,
		"micro/fieldcyclecall": fixture.FieldCycleThroughCall().Prog.G,
	}
	for seed := int64(0); seed < 25; seed++ {
		cfg := fixture.RandConfig{Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3}
		gs[fmt.Sprintf("rand/%d", seed)] = fixture.RandProgram(seed, cfg).G
	}
	var profiles []benchgen.Profile
	profiles = append(profiles, benchgen.Profiles...)
	profiles = append(profiles, benchgen.CyclicProfiles...)
	profiles = append(profiles, benchgen.DiamondProfiles...)
	for _, p := range profiles {
		prog := benchgen.Generate(p.Scaled(0.005), 1)
		gs["gen/"+p.Name] = prog.G
		var buf bytes.Buffer
		if err := pag.Encode(&buf, prog); err != nil {
			t.Fatal(err)
		}
		dec, err := pag.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		gs["decode/"+p.Name] = dec.G
	}
	for _, ow := range benchgen.OpenWorldProfiles[:2] {
		b, err := benchgen.GenerateOpenWorld(ow, 0.005, 1)
		if err != nil {
			t.Fatal(err)
		}
		gs["openworld/"+ow.Name()] = b.Stripped.G
	}

	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("soot-c").Scaled(0.005), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := ev.BuildPrefix(2)
	if err != nil {
		t.Fatal(err)
	}
	gs["evolve/prefix2"] = prefix.G
	ob, err := delta.NewBase(ev.Base.G)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	for k := 1; k < ev.NumWaves(); k++ {
		log := ov.NewLog()
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatal(err)
		}
		if _, err := ov.Apply(log); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	gs["evolve/compact"] = compacted
	return gs
}

// wantLayouts are the pinned digests.
var wantLayouts = map[string]string{
	"decode/avrora":             "7c615a93597fd1e6",
	"decode/batik":              "6d9f69c198e96384",
	"decode/bloat":              "0221cd78ae1d426f",
	"decode/bloat-cyclic":       "24391a57bfb43d12",
	"decode/bloat-diamond":      "928731c6814f68df",
	"decode/jack":               "0c296dfb253f5679",
	"decode/javac":              "76bafb1e6e11bd12",
	"decode/jython":             "b54c754f974ca85a",
	"decode/luindex":            "951b11815395e20d",
	"decode/soot-c":             "addc4333d4773ebb",
	"decode/soot-c-cyclic":      "a470e73a2f7b6542",
	"decode/soot-c-diamond":     "ac6931123a232510",
	"decode/xalan":              "63d7ac9bf65141d3",
	"decode/xalan-cyclic":       "570eecf8894a1797",
	"decode/xalan-diamond":      "db4bd322e8064767",
	"evolve/compact":            "55c1553dabe66714",
	"evolve/prefix2":            "fec617f6276adc7a",
	"figure2":                   "cb242cccb88def6c",
	"gen/avrora":                "ad8b69df7656956d",
	"gen/batik":                 "18ba1e1f4e3ebf3e",
	"gen/bloat":                 "70352b14a13fc899",
	"gen/bloat-cyclic":          "625bfd3dfaf3d865",
	"gen/bloat-diamond":         "85d7bd65b2533c0b",
	"gen/jack":                  "b300831419f38b79",
	"gen/javac":                 "e3438be6c2b420d1",
	"gen/jython":                "aa3ebce62cdbda0e",
	"gen/luindex":               "1533bdaff7b47191",
	"gen/soot-c":                "769413f45eaba3bb",
	"gen/soot-c-cyclic":         "0c458d4bcc110c9a",
	"gen/soot-c-diamond":        "104951dfb745a0fb",
	"gen/xalan":                 "134a6f2f72ba61eb",
	"gen/xalan-cyclic":          "cdad89c4f25f6be9",
	"gen/xalan-diamond":         "f008d80e30bb8aad",
	"micro/assignchain":         "113e12c7bfe1c86c",
	"micro/callreturn":          "ca84411d76f9ec31",
	"micro/ctxsep":              "6d6b28ef578accb5",
	"micro/fieldcyclecall":      "2fd611eadd29154c",
	"micro/fieldpair":           "61da5c398142c699",
	"micro/globalflow":          "8bb55a62937f9e6b",
	"micro/ptcycle":             "4141955b881f00a8",
	"micro/twofields":           "cfb6add368b6caa2",
	"openworld/avrora-ow10":     "aee9f5e66274830c",
	"openworld/avrora-owleaf10": "aee9f5e66274830c",
	"rand/0":                    "dedebbfe91db7953",
	"rand/1":                    "c6052d46db97f9a0",
	"rand/10":                   "8eb96897bb8cc0d9",
	"rand/11":                   "c20d15e25f656d0b",
	"rand/12":                   "3e9e3161a44f82f6",
	"rand/13":                   "e059c496789876bb",
	"rand/14":                   "70e4b88d03a09976",
	"rand/15":                   "f590f38805162dc9",
	"rand/16":                   "e38221426bf17913",
	"rand/17":                   "888378bc60bd9d93",
	"rand/18":                   "3604ea14e54a7581",
	"rand/19":                   "64c3bc1d13af67eb",
	"rand/2":                    "9495f11ff67cadcf",
	"rand/20":                   "c793b8042e9e6cb4",
	"rand/21":                   "089311221fd59142",
	"rand/22":                   "13dc742ec428f07a",
	"rand/23":                   "33b6fe311eb9718d",
	"rand/24":                   "26e61a863e15c631",
	"rand/3":                    "56431dcf4bbd93c3",
	"rand/4":                    "2bba50065ccbc42a",
	"rand/5":                    "85f7d1f2a3140deb",
	"rand/6":                    "ddedb187f929d0b0",
	"rand/7":                    "0c9e20f58e806042",
	"rand/8":                    "e8dd21cdf0654c0b",
	"rand/9":                    "8be4e4f1cdde6cc6",
}

// TestLayoutPins: every pinned program still lays out exactly as pinned,
// and restored/<name>, the program rebuilt from its Image and FieldOrder
// as a snapshot restores it, lays out exactly as the original.
func TestLayoutPins(t *testing.T) {
	gs := pinnedLayouts(t)
	for name, g := range gs {
		got := layoutDigest(t, g)
		if want, ok := wantLayouts[name]; !ok || got != want {
			t.Errorf("%q: layout digest %s, pinned %q", name, got, want)
		}
		img, err := g.Image()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := pag.FromImage(img, g.FieldOrder())
		if err != nil {
			t.Fatalf("restored/%s: %v", name, err)
		}
		if rd := layoutDigest(t, restored); rd != got {
			t.Errorf("%q: layout digest %s, original %s", "restored/"+name, rd, got)
		}
	}
	if len(gs) != len(wantLayouts) {
		t.Errorf("built %d programs, %d pinned", len(gs), len(wantLayouts))
	}
}

// overlayDigest replays ev on a bare overlay and hashes, after every wave
// and in order, every node's base-view and condensed-view spans, its
// adjacency flags in both views and its Rep. check.Overlay compares
// sorted sets; this digest also sees the order of edges within a span,
// which the engines' budgeted work counts depend on.
func overlayDigest(t *testing.T, ev *benchgen.EvolveProgram) string {
	t.Helper()
	ob, err := delta.NewBase(ev.Base.G)
	if err != nil {
		t.Fatal(err)
	}
	ov := ob.NewOverlay()
	h := sha256.New()
	for k := 1; k < ev.NumWaves(); k++ {
		log := ov.NewLog()
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatal(err)
		}
		if _, err := ov.Apply(log); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "wave %d nodes %d\n", k, ov.NumNodes())
		for i := 0; i < ov.NumNodes(); i++ {
			n := pag.NodeID(i)
			fmt.Fprintf(h, "%d rep %d\n", n, ov.Rep(n))
			for _, c := range []bool{false, true} {
				fmt.Fprintf(h, "%v %v %v %v %v %v %v\n", ov.LocalOut(n, c), ov.GlobalOut(n, c),
					ov.LocalIn(n, c), ov.GlobalIn(n, c),
					ov.HasGlobalIn(n, c), ov.HasGlobalOut(n, c), ov.HasLocalEdges(n, c))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedOverlays builds every pinned evolve, keyed by a stable name.
func pinnedOverlays(t *testing.T) map[string]*benchgen.EvolveProgram {
	t.Helper()
	evs := map[string]*benchgen.EvolveProgram{}
	for seed := int64(0); seed < 25; seed++ {
		cfg := fixture.RandConfig{Methods: 5, Calls: 6, Globals: 2, GlobalAssigns: 3}
		ev, err := benchgen.PartitionEvolve(fixture.RandProgram(seed, cfg), "rand-evolve", 3)
		if err != nil {
			t.Fatal(err)
		}
		evs[fmt.Sprintf("rand/%d", seed)] = ev
	}
	for _, name := range []string{"bloat-cyclic", "soot-c"} {
		ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust(name).Scaled(0.005), 1, benchgen.DefaultEvolveWaves)
		if err != nil {
			t.Fatal(err)
		}
		evs["gen/"+name] = ev
	}
	return evs
}

// wantOverlays are the pinned overlay digests.
var wantOverlays = map[string]string{
	"gen/bloat-cyclic": "99c68ae4602a29f3",
	"gen/soot-c":       "490b85d8d0563444",
	"rand/0":           "f0b0e69ae9a69ef9",
	"rand/1":           "6154f872476e4134",
	"rand/10":          "e6afb13c166297c4",
	"rand/11":          "6c12870b1c43f83c",
	"rand/12":          "bb514b91acd39918",
	"rand/13":          "28224c47f799f4ea",
	"rand/14":          "555c23dbb2566366",
	"rand/15":          "314c8d3ef3e5945d",
	"rand/16":          "79706d53c9f78afb",
	"rand/17":          "dc5872bbaeba243f",
	"rand/18":          "fe7550e304aea69a",
	"rand/19":          "723b0980b8f0223d",
	"rand/2":           "f86954343f1aac6f",
	"rand/20":          "b229b0b896892639",
	"rand/21":          "44517eaa3befa0f0",
	"rand/22":          "64865e65ab9082ce",
	"rand/23":          "ebc7e97aedb72496",
	"rand/24":          "9dbb9d3938d7fed4",
	"rand/3":           "cad26dc0c903dc3b",
	"rand/4":           "114ed9766257dce2",
	"rand/5":           "1e87dbe15c45e82f",
	"rand/6":           "13888f9d670139e0",
	"rand/7":           "79ae330e7325acc7",
	"rand/8":           "873cbd8f86494159",
	"rand/9":           "175af4cbe92f1aac",
}

// TestOverlayLayoutPins: every pinned evolve still produces exactly the
// pinned overlay spans, flags and representatives after every wave.
func TestOverlayLayoutPins(t *testing.T) {
	evs := pinnedOverlays(t)
	for name, ev := range evs {
		got := overlayDigest(t, ev)
		if want, ok := wantOverlays[name]; !ok || got != want {
			t.Errorf("%q: overlay digest %s, pinned %q", name, got, want)
		}
	}
	if len(evs) != len(wantOverlays) {
		t.Errorf("built %d evolves, %d pinned", len(evs), len(wantOverlays))
	}
}
