package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/fixture"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

var bigBudget = core.Config{Budget: 150_000}

// frozenProgram builds a frozen random program with client site tables
// attached, so every snapshot section is non-trivially exercised.
func frozenProgram(seed int64) *pag.Program {
	prog := fixture.RandProgram(seed, fixture.RandConfig{}.Defaults())
	prog.G.Freeze()
	locals := fixture.AllLocals(prog)
	for i, v := range locals {
		switch i % 3 {
		case 0:
			prog.Derefs = append(prog.Derefs, pag.DerefSite{Var: v, Name: fmt.Sprintf("d%d", i)})
		case 1:
			prog.Casts = append(prog.Casts, pag.CastSite{Var: v, Target: 0, Name: fmt.Sprintf("c%d", i)})
		default:
			m := prog.G.Node(v).Method
			if m != pag.NoMethod {
				prog.Factories = append(prog.Factories, pag.FactorySite{Method: m, Ret: v, Name: fmt.Sprintf("f%d", i)})
			}
		}
	}
	return prog
}

func queryVars(prog *pag.Program, max int) []pag.NodeID {
	locals := fixture.AllLocals(prog)
	if len(locals) > max {
		locals = locals[:max]
	}
	return locals
}

// comparePts asserts two engines answer a query batch identically
// (conservative budget/depth failures must match too).
func comparePts(t *testing.T, tag string, vars []pag.NodeID, got, want *core.DynSum) {
	t.Helper()
	for _, v := range vars {
		g, errG := got.PointsTo(v)
		w, errW := want.PointsTo(v)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("%s: node %d errors diverge: %v vs %v", tag, v, errG, errW)
		}
		if errG == nil && !g.Equal(w) {
			t.Errorf("%s: pts(%d) = %v, want %v", tag, v, g, w)
		}
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	prog := frozenProgram(21)
	dir := t.TempDir()
	ctxs := new(intstack.Table)
	opts := Options{Config: bigBudget, Ctxs: ctxs}
	st, err := Create(dir, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Epoch() != 0 {
		t.Errorf("fresh store epoch = %d", st.Epoch())
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 0 {
		t.Errorf("reopened epoch = %d", re.Epoch())
	}
	p2 := re.Program()
	if p2.Name != prog.Name || len(p2.Casts) != len(prog.Casts) ||
		len(p2.Derefs) != len(prog.Derefs) || len(p2.Factories) != len(prog.Factories) {
		t.Errorf("reopened program lost sites: %d/%d/%d", len(p2.Casts), len(p2.Derefs), len(p2.Factories))
	}
	if p2.G.NumNodes() != prog.G.NumNodes() || p2.G.NumMethods() != prog.G.NumMethods() {
		t.Fatalf("reopened graph shape %d/%d", p2.G.NumNodes(), p2.G.NumMethods())
	}
	comparePts(t, "reopen", queryVars(prog, 40), re.Engine(), st.Engine())
	if err := re.Engine().CheckIntegrity(); err != nil {
		t.Errorf("CheckIntegrity: %v", err)
	}
}

// TestSnapshotPreservesNontrivialCondensation pins the non-trivial branch
// of the cond section: a cyclic benchmark's collapsed SCCs must survive
// the round trip (same representative structure, identical answers).
func TestSnapshotPreservesNontrivialCondensation(t *testing.T) {
	p := benchgen.ProfileByNameMust("soot-c-cyclic").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := ev.Base
	if prog.G.Condensation() == nil || prog.G.Condensation().Trivial() {
		t.Fatal("fixture lost its nontrivial condensation")
	}
	dir := t.TempDir()
	ctxs := new(intstack.Table)
	opts := Options{Config: bigBudget, Ctxs: ctxs}
	st, err := Create(dir, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cond := re.Program().G.Condensation()
	if cond == nil || cond.Trivial() {
		t.Fatal("round trip lost the condensation")
	}
	want := prog.G.Condensation().Stats()
	if got := cond.Stats(); got != want {
		t.Errorf("condensation stats %+v, want %+v", got, want)
	}
	var vars []pag.NodeID
	for _, d := range prog.Derefs {
		vars = append(vars, d.Var)
	}
	comparePts(t, "cyclic reopen", vars, re.Engine(), st.Engine())
}

// TestCompactPersistsSummaries: a warmed store compacts; reopening must
// come back with the summary cache already populated and identical
// answers — unless the reopen runs on the other adjacency mode, which
// must start cold.
func TestCompactPersistsSummaries(t *testing.T) {
	prog := frozenProgram(22)
	dir := t.TempDir()
	ctxs := new(intstack.Table)
	opts := Options{Config: bigBudget, Ctxs: ctxs}
	st, err := Create(dir, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	vars := queryVars(prog, 40)
	for _, v := range vars {
		st.Engine().PointsTo(v) //nolint:errcheck // warming only
	}
	warm := st.Engine().SummaryCount()
	if warm == 0 {
		t.Fatal("warm-up cached nothing")
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Engine().SummaryCount(); got != warm {
		t.Errorf("reopened summary count %d, want %d", got, warm)
	}
	comparePts(t, "warm reopen", vars, re.Engine(), st.Engine())

	// The snapshot's summaries are keyed by SCC representative: reopened
	// on the base adjacency, the store imports none of them and answers
	// like a fresh base-adjacency engine.
	baseCfg := bigBudget
	baseCfg.DisableCondense = true
	base, err := Open(dir, Options{Config: baseCfg, Ctxs: ctxs})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if got := base.Engine().SummaryCount(); got != 0 {
		t.Errorf("condensed snapshot reopened on the base adjacency with %d summaries", got)
	}
	comparePts(t, "base-adjacency reopen", vars, base.Engine(), core.NewDynSum(prog.G, baseCfg, ctxs))
	if err := base.Engine().CheckIntegrity(); err != nil {
		t.Errorf("base-adjacency reopen: CheckIntegrity: %v", err)
	}
}

// evolveStore drives a store and a plain oracle engine through the same
// waves, returning both plus the query batch.
func evolveStore(t *testing.T, dir string, waves int) (*Store, *core.DynSum, *benchgen.EvolveProgram, []pag.NodeID) {
	t.Helper()
	p := benchgen.ProfileByNameMust("soot-c").Scaled(0.004)
	ev, err := benchgen.GenerateEvolve(p, 7, waves)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	ctxs := new(intstack.Table)
	opts := Options{Config: cfg, Ctxs: ctxs}
	st, err := Create(dir, ev.Base, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	oracle := core.NewDynSum(ev.Base.G, cfg, ctxs)
	for k := 1; k < ev.NumWaves(); k++ {
		log, err := st.Engine().NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(log); err != nil {
			t.Fatalf("Append wave %d: %v", k, err)
		}
		olog, err := oracle.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.WaveLog(olog, k); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyDelta(olog); err != nil {
			t.Fatal(err)
		}
	}
	var vars []pag.NodeID
	for _, d := range ev.DerefsThrough(ev.NumWaves() - 1) {
		vars = append(vars, d.Var)
	}
	return st, oracle, ev, vars
}

// TestAppendReopenReplaysJournal: a store that appended epochs reopens to
// exactly the evolved state — epoch count, journal replay through
// ApplyDelta, answers equal to a never-persisted engine fed the same
// waves.
func TestAppendReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	st, oracle, ev, vars := evolveStore(t, dir, 3)
	wantEpoch := uint64(ev.NumWaves() - 1)
	if st.Epoch() != wantEpoch {
		t.Fatalf("store epoch %d, want %d", st.Epoch(), wantEpoch)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	re, err := Open(dir, Options{Config: cfg, Ctxs: oracle.Ctxs()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", re.Epoch(), wantEpoch)
	}
	comparePts(t, "journal replay", vars, re.Engine(), oracle)
}

// waveLog builds wave k's delta log against st's engine.
func waveLog(t *testing.T, st *Store, ev *benchgen.EvolveProgram, k int) *delta.Log {
	t.Helper()
	log, err := st.Engine().NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(log, k); err != nil {
		t.Fatal(err)
	}
	return log
}

// checkAppliedThrough checks that st's epoch, its journal and its engine
// all stand at wave k: the engine answers like one built from scratch on
// the wave-k prefix, and a reopen of dir recovers epoch k and answers
// like the live store.
func checkAppliedThrough(t *testing.T, dir string, opts Options, st *Store, ev *benchgen.EvolveProgram, k int) {
	t.Helper()
	if st.Epoch() != uint64(k) {
		t.Fatalf("store epoch %d, want %d", st.Epoch(), k)
	}
	var vars []pag.NodeID
	for _, d := range ev.DerefsThrough(k) {
		vars = append(vars, d.Var)
	}
	prefix, err := ev.BuildPrefix(k)
	if err != nil {
		t.Fatal(err)
	}
	comparePts(t, "live store vs scratch", vars, st.Engine(), core.NewDynSum(prefix.G, opts.Config, opts.Ctxs))
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Epoch() != uint64(k) {
		t.Fatalf("recovered epoch %d, want %d", re.Epoch(), k)
	}
	comparePts(t, "reopened vs live", vars, re.Engine(), st.Engine())
}

// TestAppendKeepsEpochOfFailedAutoCompact: an epoch whose automatic
// Compact fails stays applied, so Append journals it, counts it and
// reports the failure; the next Append and a reopen carry on from it.
func TestAppendKeepsEpochOfFailedAutoCompact(t *testing.T) {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("soot-c").Scaled(0.004), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = 1e-9 // every epoch compacts
	opts := Options{Config: cfg, Ctxs: new(intstack.Table)}
	dir := t.TempDir()
	st, err := Create(dir, ev.Base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sched := faultinject.NewSchedule()
	sched.Arm(faultinject.CompactRebuild, 1)
	faultinject.Activate(sched)
	_, err = st.Append(waveLog(t, st, ev, 1))
	faultinject.Deactivate()
	if !errors.Is(err, core.ErrAutoCompact) {
		t.Fatalf("Append under a compaction fault = %v, want ErrAutoCompact", err)
	}
	if st.Engine().Overlay() == nil {
		t.Fatal("the failed compaction dropped the overlay")
	}
	checkAppliedThrough(t, dir, opts, st, ev, 1)
	if _, err := st.Append(waveLog(t, st, ev, 2)); err != nil {
		t.Fatalf("Append wave 2: %v", err)
	}
	if st.Engine().Compactions() == 0 {
		t.Error("wave 2 did not compact")
	}
	checkAppliedThrough(t, dir, opts, st, ev, 2)
}

// TestOpenKeepsEpochOfFailedAutoCompact: an epoch whose automatic
// Compact fails during replay is still applied, so Open recovers every
// journaled epoch and answers like the live store.
func TestOpenKeepsEpochOfFailedAutoCompact(t *testing.T) {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("soot-c").Scaled(0.004), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bigBudget
	cfg.CompactFraction = -1
	opts := Options{Config: cfg, Ctxs: new(intstack.Table)}
	dir := t.TempDir()
	st, err := Create(dir, ev.Base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := 1; k <= 2; k++ {
		if _, err := st.Append(waveLog(t, st, ev, k)); err != nil {
			t.Fatalf("Append wave %d: %v", k, err)
		}
	}

	reopts := opts
	reopts.Config.CompactFraction = 1e-9 // every replayed epoch compacts
	sched := faultinject.NewSchedule()
	sched.Arm(faultinject.CompactRebuild, 1)
	faultinject.Activate(sched)
	re, err := Open(dir, reopts)
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("Open with a compaction fault in replay: %v", err)
	}
	defer re.Close()
	if n := sched.Arrivals(faultinject.CompactRebuild); n != 2 {
		t.Fatalf("replay reached the compaction %d times, want 2", n)
	}
	if re.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", re.Epoch())
	}
	if re.Engine().Compactions() == 0 {
		t.Error("replaying wave 2 did not compact")
	}
	var vars []pag.NodeID
	for _, d := range ev.DerefsThrough(2) {
		vars = append(vars, d.Var)
	}
	comparePts(t, "reopened vs live", vars, re.Engine(), st.Engine())
}

// TestAppendJournalFaultLeavesStore: a journal write that dies inside
// Append, torn or whole, leaves the engine, the epoch and the journal as
// they were, so the next Append journals the same epoch number and a
// reopen answers like the live store.
func TestAppendJournalFaultLeavesStore(t *testing.T) {
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("soot-c").Scaled(0.004), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []faultinject.Point{faultinject.JournalAppend, faultinject.JournalSync} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := bigBudget
			cfg.CompactFraction = -1
			opts := Options{Config: cfg, Ctxs: new(intstack.Table)}
			dir := t.TempDir()
			st, err := Create(dir, ev.Base, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			log := waveLog(t, st, ev, 1)
			sched := faultinject.NewSchedule()
			sched.Arm(p, 1)
			faultinject.Activate(sched)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := faultinject.AsFault(r); !ok {
							panic(r)
						}
					}
				}()
				st.Append(log) //nolint:errcheck // the fault panics
				t.Error("Append survived the journal fault")
			}()
			faultinject.Deactivate()
			checkAppliedThrough(t, dir, opts, st, ev, 0)
			for k := 1; k <= 2; k++ {
				if _, err := st.Append(waveLog(t, st, ev, k)); err != nil {
					t.Fatalf("Append wave %d: %v", k, err)
				}
			}
			checkAppliedThrough(t, dir, opts, st, ev, 2)
		})
	}
}

// TestCompactRotatesJournal: after Compact the journal is empty, the
// snapshot carries the merged graph at the same epoch, and reopening
// replays nothing but answers identically.
func TestCompactRotatesJournal(t *testing.T) {
	dir := t.TempDir()
	st, oracle, ev, vars := evolveStore(t, dir, 3)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	wantEpoch := uint64(ev.NumWaves() - 1)
	if st.Epoch() != wantEpoch {
		t.Fatalf("Compact moved the epoch to %d", st.Epoch())
	}
	if st.Engine().Overlay() != nil {
		t.Fatal("Compact left the overlay live")
	}

	jdata, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(jdata) != len(Magic)+4 {
		t.Errorf("rotated journal holds %d bytes, want bare header", len(jdata))
	}

	cfg := bigBudget
	cfg.CompactFraction = -1
	re, err := Open(dir, Options{Config: cfg, Ctxs: oracle.Ctxs()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", re.Epoch(), wantEpoch)
	}
	comparePts(t, "post-compact reopen", vars, re.Engine(), oracle)
}

// TestTornJournalTailRecoversPrefix: cutting the journal mid-record
// silently drops the last epoch — the reopened store answers like an
// engine that applied one wave fewer.
func TestTornJournalTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _, ev, _ := evolveStore(t, dir, 3)
	st.Close()

	jpath := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := bigBudget
	cfg.CompactFraction = -1
	ctxs := new(intstack.Table)
	re, err := Open(dir, Options{Config: cfg, Ctxs: ctxs})
	if err != nil {
		t.Fatalf("torn tail must recover: %v", err)
	}
	defer re.Close()
	wantEpoch := uint64(ev.NumWaves() - 2)
	if re.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d (last record torn)", re.Epoch(), wantEpoch)
	}

	oracle := core.NewDynSum(ev.Base.G, cfg, ctxs)
	for k := 1; k <= int(wantEpoch); k++ {
		log, err := oracle.NewDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.WaveLog(log, k); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyDelta(log); err != nil {
			t.Fatal(err)
		}
	}
	var vars []pag.NodeID
	for _, d := range ev.DerefsThrough(int(wantEpoch)) {
		vars = append(vars, d.Var)
	}
	comparePts(t, "torn tail", vars, re.Engine(), oracle)
}

// TestCorruptJournalRecordIsFatal: flipping a byte inside a non-final
// record is mid-journal corruption — Open must refuse with a typed
// *CorruptJournalError, never replay past it.
func TestCorruptJournalRecordIsFatal(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := evolveStore(t, dir, 3)
	st.Close()

	jpath := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)+4+16+10] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{Config: bigBudget})
	var ce *CorruptJournalError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on corrupt journal: err = %v (%T), want *CorruptJournalError", err, err)
	}
	if ce.Record != 0 {
		t.Errorf("corruption reported at record %d, want 0", ce.Record)
	}
}

// TestSnapshotCorruptionTaxonomy drives decodeSnapshot through each
// damage class and asserts the typed-error contract.
func TestSnapshotCorruptionTaxonomy(t *testing.T) {
	prog := frozenProgram(23)
	dir := t.TempDir()
	st, err := Create(dir, prog, Options{Config: bigBudget})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	good, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(good); err != nil {
		t.Fatalf("pristine snapshot does not decode: %v", err)
	}

	isCorrupt := func(t *testing.T, data []byte) *CorruptSnapshotError {
		t.Helper()
		_, err := decodeSnapshot(data)
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v (%T), want *CorruptSnapshotError", err, err)
		}
		return ce
	}

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("NOTASNAP"), good[len(Magic):]...)
		isCorrupt(t, bad)
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(Magic)] = 0xfe
		_, err := decodeSnapshot(bad)
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
		var ce *CorruptSnapshotError
		if errors.As(err, &ce) {
			t.Errorf("version skew misclassified as corruption")
		}
	})
	t.Run("previous-version", func(t *testing.T) {
		// A version-1 snapshot has no field order in its csr section:
		// Open refuses it by version rather than misreading it.
		old := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(old[len(Magic):], Version-1)
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Config: bigBudget}); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("payload-bitrot", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[snapHeaderSize+sectionHdrSize+2] ^= 0x40 // inside the meta payload
		ce := isCorrupt(t, bad)
		if ce.Section != "meta" {
			t.Errorf("damage attributed to section %q, want meta", ce.Section)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(good) - 1, len(good) / 2, snapHeaderSize + 3, snapHeaderSize} {
			isCorrupt(t, good[:cut])
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		isCorrupt(t, append(append([]byte(nil), good...), 0xaa))
	})
	t.Run("short-header", func(t *testing.T) {
		isCorrupt(t, good[:4])
	})
}

// TestCreateOverwritesStaleStore: Create on a directory holding an older
// store must not let the old journal replay onto the new snapshot.
func TestCreateOverwritesStaleStore(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := evolveStore(t, dir, 3)
	st.Close()

	prog := frozenProgram(24)
	ctxs := new(intstack.Table)
	opts := Options{Config: bigBudget, Ctxs: ctxs}
	st2, err := Create(dir, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after re-Create: %v", err)
	}
	defer re.Close()
	if re.Epoch() != 0 {
		t.Errorf("re-created store reopened at epoch %d", re.Epoch())
	}
	if re.Program().G.NumNodes() != prog.G.NumNodes() {
		t.Errorf("re-created store reopened the old graph")
	}
}

// TestEncodeDecodeIsIdentity: decoding an encoded snapshot and
// re-encoding it reproduces the bytes — the codec has one canonical form.
func TestEncodeDecodeIsIdentity(t *testing.T) {
	prog := frozenProgram(25)
	s, err := programSnapshot(7, prog)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeSnapshot(s)
	dec, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.epoch != 7 || dec.name != prog.Name {
		t.Errorf("decoded meta %d %q", dec.epoch, dec.name)
	}
	re := encodeSnapshot(dec)
	if string(re) != string(enc) {
		t.Errorf("re-encoded snapshot differs: %d vs %d bytes", len(re), len(enc))
	}
}

// TestStorePreservesBodyless pins the open-world half of recovery: a
// store built from a stripped graph must reopen with every bodyless mark
// intact — identical BodylessInfo records, blob nodes recognised — and a
// blended open-world engine on the recovered graph must answer exactly
// like one on the original. Dropping the section would be silent
// unsoundness: the recovered engine would answer its holes closed-world.
func TestStorePreservesBodyless(t *testing.T) {
	ow, ok := benchgen.OpenWorldProfileByName("avrora-ow25")
	if !ok {
		t.Fatal("avrora-ow25 profile missing")
	}
	bench, err := benchgen.GenerateOpenWorld(ow, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Stripped

	dir := t.TempDir()
	opts := Options{Config: bigBudget, Ctxs: new(intstack.Table)}
	st, err := Create(dir, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	g, rg := prog.G, re.Program().G
	if rg.NumBodyless() != g.NumBodyless() {
		t.Fatalf("reopened NumBodyless = %d, want %d", rg.NumBodyless(), g.NumBodyless())
	}
	for _, m := range g.BodylessMethods() {
		want, _ := g.Bodyless(m)
		got, ok := rg.Bodyless(m)
		if !ok {
			t.Fatalf("method %s lost its bodyless mark", g.MethodInfo(m).Name)
		}
		if got.Ret != want.Ret || got.BlobObj != want.BlobObj || got.BlobVar != want.BlobVar ||
			len(got.Formals) != len(want.Formals) {
			t.Fatalf("method %s info = %+v, want %+v", g.MethodInfo(m).Name, got, want)
		}
		for i := range want.Formals {
			if got.Formals[i] != want.Formals[i] {
				t.Fatalf("method %s formal %d = %d, want %d",
					g.MethodInfo(m).Name, i, got.Formals[i], want.Formals[i])
			}
		}
		if !rg.IsBlobObject(got.BlobObj) {
			t.Fatalf("method %s blob object not recognised after reopen", g.MethodInfo(m).Name)
		}
	}

	st.Engine().EnableOpenWorld()
	re.Engine().EnableOpenWorld()
	comparePts(t, "openworld reopen", queryVars(prog, 40), re.Engine(), st.Engine())
}
