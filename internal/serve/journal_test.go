package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/persist"
	"dynsum/internal/persist/journal"
)

// recordHeader is a journal record's header: payload length, epoch and
// CRC.
const recordHeader = 4 + 8 + 4

// waveLog builds wave k's delta log against sess's engine.
func waveLog(t *testing.T, sess *Session, ev *benchgen.EvolveProgram, k int) *delta.Log {
	t.Helper()
	log, err := sess.Engine().NewDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.WaveLog(log, k); err != nil {
		t.Fatal(err)
	}
	return log
}

// checkServed checks that the session answers every deref query through
// wave k like an engine built from scratch on the wave-k prefix.
func checkServed(t *testing.T, srv *Server, sess *Session, ev *benchgen.EvolveProgram, k int, when string) {
	t.Helper()
	prefix, err := ev.BuildPrefix(k)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewDynSum(prefix.G, testEngineCfg, srv.Ctxs())
	resp, err := srv.Do(context.Background(), Request{Session: sess.ID, Queries: queryVars(ev, k)})
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for _, r := range resp.Results {
		want, err := queryCtx(oracle, r.Var, r.Ctx)
		if r.Err != nil || err != nil {
			t.Fatalf("%s: var %d: errors %v / %v", when, r.Var, r.Err, err)
		}
		if !r.Pts.Equal(want) {
			t.Fatalf("%s: var %d: served answer diverges from the wave-%d oracle", when, r.Var, k)
		}
	}
}

// TestWriteAheadJournal: with a StateDir, a session's journal holds
// exactly its applied deltas' wire bytes after every apply, before any
// drain, and journal_bytes counts each record. A delta the engine
// refuses and an injected journal-append fault each leave the journal,
// the epoch and the answers as they were. A mid-run PersistSession makes
// the directory a store that persist.Open recovers to the live session's
// answers, and the session keeps journaling after it.
func TestWriteAheadJournal(t *testing.T) {
	ev := testEvolve(t, 4)
	stateDir := t.TempDir()
	srv := newTestServer(t, ev, Config{StateDir: stateDir})
	sess, err := srv.CreateSession("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(stateDir, sess.ID, "journal.dsum")
	var history [][]byte
	journaled := int64(0)
	checkJournal := func(when string) {
		t.Helper()
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		recs, good, err := journal.Scan(data)
		if err != nil || good != int64(len(data)) {
			t.Fatalf("%s: journal scan: %v (%d of %d bytes whole)", when, err, good, len(data))
		}
		if len(recs) != len(history) || sess.Epoch() != uint64(len(history)) {
			t.Fatalf("%s: %d journal records at epoch %d, want %d", when, len(recs), sess.Epoch(), len(history))
		}
		for i, r := range recs {
			if r.Epoch != uint64(i+1) || !bytes.Equal(r.Payload, history[i]) {
				t.Fatalf("%s: record %d (epoch %d) is not applied delta %d", when, i, r.Epoch, i+1)
			}
		}
		if got := srv.MetricsSnapshot().JournalBytes; got != journaled {
			t.Errorf("%s: journal_bytes %d, want %d", when, got, journaled)
		}
	}
	apply := func(k int) {
		t.Helper()
		log := waveLog(t, sess, ev, k)
		payload := log.AppendBinary(nil)
		if _, err := srv.Apply(context.Background(), sess.ID, log); err != nil {
			t.Fatalf("apply wave %d: %v", k, err)
		}
		history = append(history, payload)
		journaled += recordHeader + int64(len(payload))
		checkJournal(fmt.Sprintf("after wave %d", k))
	}

	stale := waveLog(t, sess, ev, 1)
	apply(1)

	// Refused by the engine: a log built before wave 1 is stale now.
	if _, err := srv.Apply(context.Background(), sess.ID, stale); err == nil {
		t.Fatal("stale log applied")
	}
	checkJournal("after a refused delta")
	checkServed(t, srv, sess, ev, 1, "after a refused delta")

	// Refused by the journal: the append tears between header and payload.
	sched := faultinject.NewSchedule()
	sched.Arm(faultinject.JournalAppend, 1)
	faultinject.Activate(sched)
	_, err = srv.Apply(context.Background(), sess.ID, waveLog(t, sess, ev, 2))
	faultinject.Deactivate()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("apply under a journal-append fault = %v, want *PanicError", err)
	}
	checkJournal("after a journal-append fault")
	checkServed(t, srv, sess, ev, 1, "after a journal-append fault")

	apply(2)
	if err := srv.PersistSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(filepath.Join(stateDir, sess.ID), persist.Options{Config: testEngineCfg, Ctxs: srv.Ctxs()})
	if err != nil {
		t.Fatalf("reopen mid-run: %v", err)
	}
	for _, q := range queryVars(ev, 2) {
		want, err := queryCtx(sess.Engine(), q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryCtx(st.Engine(), q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("var %d: recovered answer diverges from the live session", q.Var)
		}
	}
	st.Close()
	apply(3)
	checkServed(t, srv, sess, ev, 3, "after wave 3")
}

// TestFailedAutoCompactKeepsEpoch: an epoch whose automatic Compact
// fails stays applied, so Apply reports the failure while the session's
// epoch, its journal and its engine all move on to it; the next apply
// compacts, and the persisted session reopens to the live answers.
func TestFailedAutoCompactKeepsEpoch(t *testing.T) {
	ev := testEvolve(t, 3)
	stateDir := t.TempDir()
	cfg := testEngineCfg
	cfg.CompactFraction = 1e-9 // every epoch compacts
	srv := newTestServer(t, ev, Config{StateDir: stateDir, Engine: cfg})
	sess, err := srv.CreateSession("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	checkEpoch := func(k int, when string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(stateDir, sess.ID, "journal.dsum"))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		recs, _, err := journal.Scan(data)
		if err != nil || len(recs) != k || sess.Epoch() != uint64(k) {
			t.Fatalf("%s: %d journal records (%v) at epoch %d, want %d", when, len(recs), err, sess.Epoch(), k)
		}
		checkServed(t, srv, sess, ev, k, when)
	}

	sched := faultinject.NewSchedule()
	sched.Arm(faultinject.CompactRebuild, 1)
	faultinject.Activate(sched)
	_, err = srv.Apply(context.Background(), sess.ID, waveLog(t, sess, ev, 1))
	faultinject.Deactivate()
	if !errors.Is(err, core.ErrAutoCompact) {
		t.Fatalf("apply under a compaction fault = %v, want ErrAutoCompact", err)
	}
	checkEpoch(1, "after a failed auto-compaction")

	if _, err := srv.Apply(context.Background(), sess.ID, waveLog(t, sess, ev, 2)); err != nil {
		t.Fatalf("apply wave 2: %v", err)
	}
	if sess.Engine().Compactions() == 0 {
		t.Error("wave 2 did not compact")
	}
	checkEpoch(2, "after wave 2")

	if err := srv.PersistSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(filepath.Join(stateDir, sess.ID), persist.Options{Config: cfg, Ctxs: srv.Ctxs()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	for _, q := range queryVars(ev, 2) {
		want, err := queryCtx(sess.Engine(), q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryCtx(st.Engine(), q.Var, q.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("var %d: recovered answer diverges from the live session", q.Var)
		}
	}
}

// TestFailedCutRefusesPersist: when an apply fails and the cut of its
// journal record fails too, the journal may hold an epoch the engine
// never applied. The session then refuses every later apply and every
// persist, PersistSession after Drain included, so a directory that
// would replay that epoch is never reported persisted.
func TestFailedCutRefusesPersist(t *testing.T) {
	ev := testEvolve(t, 3)
	srv := newTestServer(t, ev, Config{StateDir: t.TempDir()})
	sess, err := srv.CreateSession("s", "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.Apply(ctx, sess.ID, waveLog(t, sess, ev, 1)); err != nil {
		t.Fatal(err)
	}
	// Close the journal's file beneath the session: the next append
	// fails, and so does the cut that undoes it.
	sess.mu.Lock()
	sess.jr.Close()
	sess.mu.Unlock()
	for i := 1; i <= 2; i++ {
		if _, err := srv.Apply(ctx, sess.ID, waveLog(t, sess, ev, 2)); err == nil {
			t.Fatalf("apply %d after a failed cut succeeded", i)
		}
	}
	sess.mu.RLock()
	cut := sess.jr.Err()
	sess.mu.RUnlock()
	if cut == nil {
		t.Fatal("the failed cut left the journal accepting appends")
	}
	if sess.Epoch() != 1 {
		t.Fatalf("session at epoch %d after refused applies, want 1", sess.Epoch())
	}
	checkServed(t, srv, sess, ev, 1, "after a failed cut")
	if err := srv.PersistSession(sess.ID); err == nil {
		t.Fatal("PersistSession after a failed cut succeeded")
	}
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("Drain persisted a session whose cut failed")
	}
	if err := srv.PersistSession(sess.ID); !errors.Is(err, cut) {
		t.Fatalf("PersistSession after Drain = %v, want the failed cut %v", err, cut)
	}
}

// TestAppliesHoldOnlyOverlays is the serve layer's memory guard: applies
// on a server without a StateDir grow the live heap by no more than the
// sessions' overlays hold (delta.Stats.Bytes) plus a small allowance, so
// a session that kept a copy of its deltas would fail it.
func TestAppliesHoldOnlyOverlays(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a whole evolve on several sessions")
	}
	const sessions = 4
	ev, err := benchgen.GenerateEvolve(benchgen.ProfileByNameMust("bloat-cyclic").Scaled(0.2), 7, 15)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, ev, Config{})
	var all []*Session
	for _, id := range []string{"warm", "a", "b", "c", "d"}[:sessions+1] {
		sess, err := srv.CreateSession(id, "t")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sess)
	}
	// The first apply on the server builds the tier's shared delta.Base;
	// a warm-up session pays it before the measurement.
	if _, err := srv.Apply(context.Background(), "warm", waveLog(t, all[0], ev, 1)); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	wire := int64(0)
	for k := 1; k < ev.NumWaves(); k++ {
		for _, sess := range all[1:] {
			log := waveLog(t, sess, ev, k)
			wire += int64(len(log.AppendBinary(nil)))
			if _, err := srv.Apply(context.Background(), sess.ID, log); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := heap() - before
	held := int64(0)
	for _, sess := range all[1:] {
		held += sess.Engine().Overlay().Stats().Bytes
	}
	allowance := held / 10
	t.Logf("%d sessions grew the heap by %d B; overlays hold %d B; the deltas are %d B on the wire", sessions, grown, held, wire)
	if grown > held+allowance {
		t.Errorf("applies grew the heap by %d B, want <= %d B (overlays) + %d B", grown, held, allowance)
	}
	runtime.KeepAlive(ev)
	runtime.KeepAlive(all)
}
