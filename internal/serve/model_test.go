package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

// The session model: one seeded state machine over a Server with a
// state dir. A seed draws a list of operations — create, query, apply
// (valid, stale or corrupt bytes), PersistSession, Drain, crash, reopen —
// each optionally with faultinject points armed at their first arrival.
// The model keeps, per session, its epoch and whether a failed journal
// cut made it refuse, and per session directory the epochs persist.Open
// may land on. Every live answer must equal a fresh engine's on
// BuildPrefix(epoch); every reopened directory must answer as a fresh
// engine on BuildPrefix(e) for some e between its last persisted epoch
// and the live epoch. A failing run prints its op list and shrinks it by
// deleting ops.

// modelOps is the length of one seed's op list, and modelSeeds the seeds
// the plain test run replays: together the fixed op budget.
const (
	modelOps   = 40
	modelSeeds = 128
)

type opKind uint8

const (
	opCreate opKind = iota
	opQuery
	opApply
	opApplyStale
	opApplyCorrupt
	opPersist
	opDrain
	opCrash
	opReopen
)

var opNames = [...]string{"create", "query", "apply", "apply-stale", "apply-corrupt", "persist", "drain", "crash", "reopen"}

// opWeights is how often genOps draws each kind, in opKind order.
var opWeights = [...]int{8, 12, 22, 8, 5, 14, 7, 6, 14}

// opFaults lists the points an op of each kind may arm, each with the
// typed outcome the model expects when it fires.
var opFaults = map[opKind][]faultinject.Point{
	opQuery:      {faultinject.ServeAdmit, faultinject.ServeDispatch},
	opApply:      {faultinject.ServeSessionApply, faultinject.JournalAppend, faultinject.JournalSync, faultinject.OverlayApply, faultinject.CompactRebuild},
	opApplyStale: {faultinject.ServeSessionApply, faultinject.JournalAppend, faultinject.JournalSync},
	opPersist:    {faultinject.ServeDrain, faultinject.SnapshotWrite, faultinject.SnapshotRename},
	opDrain:      {faultinject.ServeDrain, faultinject.SnapshotWrite},
	opReopen:     {faultinject.CompactRebuild},
}

// modelOp is one step. sess picks a session (or a session ID) modulo
// what exists when the op runs, and arg seeds the op's other choices, so
// an op keeps a meaning when the ops before it are deleted.
type modelOp struct {
	kind   opKind
	sess   int
	arg    int64
	faults []faultinject.Point
}

func (o modelOp) String() string {
	s := fmt.Sprintf("%s sess=%d arg=%d", opNames[o.kind], o.sess, o.arg)
	for _, p := range o.faults {
		s += " +" + p.String()
	}
	return s
}

func genOps(seed int64, n int) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range opWeights {
		total += w
	}
	ops := make([]modelOp, n)
	for i := range ops {
		k, r := opKind(0), rng.Intn(total)
		for r >= opWeights[k] {
			r -= opWeights[k]
			k++
		}
		op := modelOp{kind: k, sess: rng.Intn(8), arg: rng.Int63()}
		if pts := opFaults[k]; len(pts) > 0 && rng.Intn(3) == 0 {
			op.faults = append(op.faults, pts[rng.Intn(len(pts))])
		}
		// A failed cut needs an apply that fails and a cut that fails.
		if (k == opApply || k == opApplyStale) && rng.Intn(4) == 0 {
			op.faults = append(op.faults, faultinject.JournalTruncate)
		}
		ops[i] = op
	}
	return ops
}

func formatOps(ops []modelOp) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %2d %v\n", i, op)
	}
	return b.String()
}

// modelFixture is the program every model run evolves: built once, with
// the wave prefixes the oracles run on.
var modelFixture struct {
	once     sync.Once
	ev       *benchgen.EvolveProgram
	prefixes []*pag.Program
	err      error
}

func loadModelFixture() (*benchgen.EvolveProgram, []*pag.Program, error) {
	f := &modelFixture
	f.once.Do(func() {
		f.ev, f.err = benchgen.GenerateEvolve(benchgen.ProfileByNameMust("soot-c").Scaled(0.004), 7, 4)
		for k := 0; f.err == nil && k < f.ev.NumWaves(); k++ {
			var p *pag.Program
			p, f.err = f.ev.BuildPrefix(k)
			f.prefixes = append(f.prefixes, p)
		}
	})
	return f.ev, f.prefixes, f.err
}

// modelSession is the model of one live session.
type modelSession struct {
	id    string
	sess  *Session
	epoch int
	// attached: the session's store exists (its first apply or persist
	// got past the fault point in front of it).
	attached bool
	// refused: a journal cut failed, so every apply and persist fails.
	refused bool
	// tainted: a corrupted delta decoded and applied, so the session no
	// longer follows the evolve's waves and no oracle answers for it.
	tainted bool
	// stale is a log built for the epoch before the current one.
	stale *delta.Log
}

// modelDir is the model of one session directory in the state dir.
type modelDir struct {
	// ok: the directory holds a snapshot, so persist.Open must succeed
	// and land on an epoch in [lo, hi].
	ok     bool
	lo, hi int
	// loose: a failed cut may have left a record the engine never
	// applied, so Open may fail or land on hi+1.
	loose   bool
	tainted bool
	// synced is the journal's size at the last persist: a crash loses
	// only bytes past it.
	synced int64
}

type modelRun struct {
	ev       *benchgen.EvolveProgram
	prefixes []*pag.Program
	cfg      core.Config
	root     string
	stateDir string
	crashes  int
	srv      *Server
	sessions []*modelSession
	dirs     map[string]*modelDir
	// reopenCtxs is the context table reopened stores share with their
	// oracles.
	reopenCtxs *intstack.Table
	oracles    map[oracleKey]*core.DynSum
	sched      *faultinject.Schedule
	armed      []faultinject.Point
}

type oracleKey struct {
	ctxs  *intstack.Table
	epoch int
}

func (m *modelRun) oracle(ctxs *intstack.Table, epoch int) *core.DynSum {
	k := oracleKey{ctxs, epoch}
	if m.oracles[k] == nil {
		m.oracles[k] = core.NewDynSum(m.prefixes[epoch].G, m.cfg, ctxs)
	}
	return m.oracles[k]
}

// checkAnswers compares up to n of the epoch's deref queries, from the
// arg-th on, between d and the oracle on BuildPrefix(epoch).
func (m *modelRun) checkAnswers(d *core.DynSum, ctxs *intstack.Table, epoch int, arg int64, n int) error {
	qs := queryVars(m.ev, epoch)
	oracle := m.oracle(ctxs, epoch)
	for i := 0; i < n && i < len(qs); i++ {
		q := qs[(int(arg%int64(len(qs)))+i)%len(qs)]
		want, err := queryCtx(oracle, q.Var, q.Ctx)
		if err != nil {
			return fmt.Errorf("oracle var %d: %v", q.Var, err)
		}
		got, err := queryCtx(d, q.Var, q.Ctx)
		if err != nil {
			return fmt.Errorf("var %d: %v", q.Var, err)
		}
		if !got.Equal(want) {
			return fmt.Errorf("var %d diverges from a fresh engine on BuildPrefix(%d)", q.Var, epoch)
		}
	}
	return nil
}

func (m *modelRun) dir(id string) *modelDir {
	if m.dirs[id] == nil {
		m.dirs[id] = &modelDir{}
	}
	return m.dirs[id]
}

// attach records that ms's store now exists: attaching cleared what an
// earlier server left in its directory.
func (m *modelRun) attach(ms *modelSession) {
	if !ms.attached {
		ms.attached = true
		m.dirs[ms.id] = &modelDir{}
	}
}

// persisted records a successful persist of ms.
func (m *modelRun) persisted(ms *modelSession) error {
	fi, err := os.Stat(filepath.Join(m.stateDir, ms.id, "journal.dsum"))
	if err != nil {
		return err
	}
	d := m.dir(ms.id)
	d.ok, d.lo, d.hi, d.synced = true, ms.epoch, ms.epoch, fi.Size()
	return nil
}

func (m *modelRun) running() bool { return m.srv != nil && m.srv.Ready() }

// pick returns the session op.sess selects, nil when there is none.
func (m *modelRun) pick(op modelOp) *modelSession {
	if len(m.sessions) == 0 {
		return nil
	}
	return m.sessions[op.sess%len(m.sessions)]
}

// fired reports whether the current op armed p and p was reached.
func (m *modelRun) fired(p faultinject.Point) bool {
	for _, a := range m.armed {
		if a == p {
			return m.sched.Arrivals(p) > 0
		}
	}
	return false
}

// expectErr checks a typed outcome: want nil, a *PanicError, a
// *core.MutatorPanicError, core.ErrAutoCompact, a draining
// *OverloadError, ErrNotRunning, or any error.
func expectErr(err error, want string) error {
	var pe *PanicError
	var mp *core.MutatorPanicError
	var oe *OverloadError
	ok := false
	switch want {
	case "nil":
		ok = err == nil
	case "panic":
		ok = errors.As(err, &pe)
	case "mutator-panic":
		ok = errors.As(err, &mp)
	case "auto-compact":
		ok = errors.Is(err, core.ErrAutoCompact)
	case "draining":
		ok = errors.As(err, &oe) && oe.Draining
	case "not-running":
		ok = errors.Is(err, ErrNotRunning)
	case "error":
		ok = err != nil
	}
	if !ok {
		return fmt.Errorf("got error %v, want %s", err, want)
	}
	return nil
}

func (m *modelRun) step(op modelOp) error {
	m.sched, m.armed = faultinject.NewSchedule(), op.faults
	for _, p := range op.faults {
		m.sched.Arm(p, 1)
	}
	switch op.kind {
	case opCreate:
		return m.create(op)
	case opQuery:
		return m.query(op)
	case opApply, opApplyStale, opApplyCorrupt:
		return m.apply(op)
	case opPersist:
		return m.persist(op)
	case opDrain:
		return m.drain(op)
	case opCrash:
		return m.crash(op)
	case opReopen:
		return m.reopen(op)
	}
	return nil
}

// create registers a session under one of four IDs, so later servers
// reuse the directories earlier ones left. On a stopped server it first
// starts a new one over the same state dir, as a restarted daemon would.
func (m *modelRun) create(op modelOp) error {
	if !m.running() {
		srv, err := NewServer(m.ev.Base, Config{Workers: 1, QueueDepth: 8, StateDir: m.stateDir, Engine: m.cfg})
		if err != nil {
			return err
		}
		m.srv, m.sessions = srv, nil
	}
	var free []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		if m.srv.Session(id) == nil {
			free = append(free, id)
		}
	}
	if len(free) == 0 {
		return nil
	}
	id := free[op.sess%len(free)]
	sess, err := m.srv.CreateSession(id, "t")
	if err != nil {
		return err
	}
	m.sessions = append(m.sessions, &modelSession{id: id, sess: sess})
	return nil
}

func (m *modelRun) query(op modelOp) error {
	ms := m.pick(op)
	if ms == nil {
		return nil
	}
	qs := queryVars(m.ev, ms.epoch)
	at := int(op.arg % int64(len(qs)))
	qs = qs[at:min(at+3, len(qs))]
	faultinject.Activate(m.sched)
	resp, err := m.srv.Do(context.Background(), Request{Session: ms.id, Queries: qs})
	faultinject.Deactivate()
	switch {
	case !m.running():
		return expectErr(err, "draining")
	case m.fired(faultinject.ServeAdmit) || m.fired(faultinject.ServeDispatch):
		return expectErr(err, "panic")
	case ms.tainted:
		return nil // its queries may name nodes it does not have
	case err != nil:
		return err
	}
	oracle := m.oracle(m.srv.Ctxs(), ms.epoch)
	for _, r := range resp.Results {
		want, err := queryCtx(oracle, r.Var, r.Ctx)
		if r.Err != nil || err != nil {
			return fmt.Errorf("var %d: errors %v / %v", r.Var, r.Err, err)
		}
		if !r.Pts.Equal(want) {
			return fmt.Errorf("var %d: served answer diverges from BuildPrefix(%d)", r.Var, ms.epoch)
		}
	}
	return nil
}

// nextLog builds the session's log for its next wave, nil when the
// evolve has none left or the session left the waves.
func (m *modelRun) nextLog(ms *modelSession) (*delta.Log, error) {
	if ms.tainted || ms.epoch+1 >= m.ev.NumWaves() {
		return nil, nil
	}
	log, err := ms.sess.Engine().NewDeltaLog()
	if err != nil {
		return nil, err
	}
	return log, m.ev.WaveLog(log, ms.epoch+1)
}

func (m *modelRun) apply(op modelOp) error {
	ms := m.pick(op)
	if ms == nil {
		return nil
	}
	var log, spare *delta.Log
	var err error
	switch op.kind {
	case opApply:
		if log, err = m.nextLog(ms); err == nil && log != nil {
			spare, err = m.nextLog(ms)
		}
	case opApplyStale:
		log = ms.stale
	case opApplyCorrupt:
		if log, err = m.nextLog(ms); err != nil || log == nil {
			break
		}
		data := log.AppendBinary(nil)
		i := int(op.arg % int64(len(data)))
		if op.arg%2 == 0 {
			data = data[:i]
		} else {
			data[i] ^= byte(1 + op.arg%255)
		}
		if log, err = delta.DecodeLog(data); err != nil {
			return nil // refused before it reaches the server
		}
	}
	if err != nil || log == nil {
		return err
	}
	faultinject.Activate(m.sched)
	_, err = m.srv.Apply(context.Background(), ms.id, log)
	faultinject.Deactivate()
	applied := false
	want := "error"
	switch {
	case !m.running():
		want = "draining"
	case m.fired(faultinject.ServeSessionApply):
		want = "panic"
	default:
		m.attach(ms)
		switch {
		case ms.refused:
		case m.fired(faultinject.JournalTruncate):
			want = "panic"
			ms.refused, m.dir(ms.id).loose = true, true
		case m.fired(faultinject.JournalAppend) || m.fired(faultinject.JournalSync):
			want = "panic"
		case m.fired(faultinject.OverlayApply):
			want = "mutator-panic"
		case op.kind == opApplyStale:
		case op.kind == opApplyCorrupt:
			// A corrupted delta that decodes may apply or be refused.
			applied = err == nil || errors.Is(err, core.ErrAutoCompact)
			ms.tainted = ms.tainted || applied
			want = "any"
		case m.fired(faultinject.CompactRebuild):
			want, applied = "auto-compact", true
		default:
			want, applied = "nil", true
		}
	}
	if want != "any" {
		if err := expectErr(err, want); err != nil {
			return err
		}
	}
	if applied {
		ms.epoch++
		ms.stale = spare
		d := m.dir(ms.id)
		d.hi = ms.epoch
		d.tainted = d.tainted || ms.tainted
	}
	if got := ms.sess.Epoch(); got != uint64(ms.epoch) {
		return fmt.Errorf("session %s at epoch %d, model %d", ms.id, got, ms.epoch)
	}
	return nil
}

func (m *modelRun) persist(op modelOp) error {
	ms := m.pick(op)
	if ms == nil {
		return nil
	}
	faultinject.Activate(m.sched)
	err := m.srv.PersistSession(ms.id)
	faultinject.Deactivate()
	switch {
	case m.fired(faultinject.ServeDrain):
		return expectErr(err, "panic")
	case !ms.attached && !m.running():
		return expectErr(err, "not-running")
	}
	m.attach(ms)
	switch {
	case ms.refused:
		return expectErr(err, "error")
	case m.fired(faultinject.SnapshotWrite) || m.fired(faultinject.SnapshotRename):
		return expectErr(err, "panic")
	}
	if err := expectErr(err, "nil"); err != nil {
		return err
	}
	return m.persisted(ms)
}

func (m *modelRun) drain(op modelOp) error {
	if m.srv == nil {
		return nil
	}
	if !m.running() {
		return expectErr(m.srv.Drain(context.Background()), "not-running")
	}
	faultinject.Activate(m.sched)
	err := m.srv.Drain(context.Background())
	faultinject.Deactivate()
	// Drain visits sessions in map order, so which one a fault hit is
	// read off the per-session errors it joined.
	failed := map[string]error{}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			for _, ms := range m.sessions {
				if strings.HasPrefix(e.Error(), "session "+ms.id+":") || strings.HasPrefix(e.Error(), "serve: session "+ms.id+":") {
					failed[ms.id] = e
				}
			}
		}
	}
	faulted := m.fired(faultinject.ServeDrain) || m.fired(faultinject.SnapshotWrite)
	wantErr := faulted
	for _, ms := range m.sessions {
		switch {
		case ms.refused:
			wantErr = true
			if failed[ms.id] == nil {
				return fmt.Errorf("Drain did not report refused session %s: %v", ms.id, err)
			}
			// Its closed store still refuses: the failed cut may have
			// left a record the engine never applied.
			if perr := expectErr(m.srv.PersistSession(ms.id), "error"); perr != nil {
				return fmt.Errorf("session %s persisted after Drain: %v", ms.id, perr)
			}
		case ms.epoch > 0 && failed[ms.id] == nil:
			if err := m.persisted(ms); err != nil {
				return err
			}
		case failed[ms.id] != nil:
			if err := expectErr(failed[ms.id], "panic"); err != nil || !faulted {
				return fmt.Errorf("session %s: drain error %v", ms.id, failed[ms.id])
			}
		}
	}
	if wantErr != (err != nil) {
		return fmt.Errorf("Drain = %v, want an error: %v", err, wantErr)
	}
	if faulted {
		return expectErr(err, "panic")
	}
	return nil
}

// crash stops the process as it stands: the state dir is copied, each
// journal possibly cut at a random byte past what its last persist made
// durable, and the copy becomes the state dir. The old server is drained
// so that no goroutine outlives it; what its drain writes is lost.
func (m *modelRun) crash(op modelOp) error {
	m.crashes++
	dst := filepath.Join(m.root, fmt.Sprintf("crash-%d", m.crashes))
	if err := copyDir(m.stateDir, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rng := rand.New(rand.NewSource(op.arg))
	for id, d := range m.dirs {
		jpath := filepath.Join(dst, id, "journal.dsum")
		fi, err := os.Stat(jpath)
		if err != nil || rng.Intn(2) == 0 {
			continue
		}
		floor := int64(0)
		if d.ok {
			floor = d.synced
		}
		if fi.Size() > floor {
			if err := os.Truncate(jpath, floor+rng.Int63n(fi.Size()-floor+1)); err != nil {
				return err
			}
		}
	}
	if m.running() {
		m.srv.Drain(context.Background()) //nolint:errcheck // the crashed process's drain is not observed
	}
	m.stateDir, m.srv, m.sessions = dst, nil, nil
	return nil
}

// reopen opens a copy of one session directory with persist.Open.
func (m *modelRun) reopen(op modelOp) error {
	id := fmt.Sprintf("s%d", op.sess%4)
	d := m.dir(id)
	src := filepath.Join(m.stateDir, id)
	dst := filepath.Join(m.root, "reopen")
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := copyDir(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	faultinject.Activate(m.sched)
	st, err := persist.Open(dst, persist.Options{Config: m.cfg, Ctxs: m.reopenCtxs})
	faultinject.Deactivate()
	if err != nil {
		if d.ok && !d.loose {
			return fmt.Errorf("reopen %s: %v, want an epoch in [%d, %d]", id, err, d.lo, d.hi)
		}
		return nil
	}
	defer st.Close()
	e, hi := int(st.Epoch()), d.hi
	if d.loose {
		hi++
	}
	if !d.ok || e < d.lo || e > hi {
		return fmt.Errorf("reopen %s at epoch %d, want failure (ok=%v) or an epoch in [%d, %d]", id, e, d.ok, d.lo, hi)
	}
	if d.tainted || e >= len(m.prefixes) {
		return nil
	}
	if err := m.checkAnswers(st.Engine(), m.reopenCtxs, e, op.arg, 6); err != nil {
		return fmt.Errorf("reopen %s at epoch %d: %v", id, e, err)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if de.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// runModel runs ops from a fresh state dir under root and returns the
// index of the op that broke the model, with its error.
func runModel(root string, seed int64, ops []modelOp) (failed int, err error) {
	ev, prefixes, err := loadModelFixture()
	if err != nil {
		return -1, err
	}
	dir, err := os.MkdirTemp(root, "run")
	if err != nil {
		return -1, err
	}
	defer os.RemoveAll(dir)
	m := &modelRun{
		ev:         ev,
		prefixes:   prefixes,
		cfg:        testEngineCfg,
		root:       dir,
		stateDir:   filepath.Join(dir, "state"),
		dirs:       map[string]*modelDir{},
		reopenCtxs: new(intstack.Table),
		oracles:    map[oracleKey]*core.DynSum{},
	}
	// Half the seeds compact at every epoch, so compaction faults fire on
	// apply and on replay.
	if seed%2 == 0 {
		m.cfg.CompactFraction = 1e-9
	}
	defer func() {
		faultinject.Deactivate()
		if m.running() {
			m.srv.Drain(context.Background()) //nolint:errcheck // the run's verdict is already made
		}
	}()
	for i, op := range ops {
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panic: %v", v)
				}
			}()
			return m.step(op)
		}()
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// checkModel runs seed's op list and, on a failure, shrinks it by
// deleting ops while it still fails.
func checkModel(t *testing.T, seed int64) {
	root := t.TempDir()
	ops := genOps(seed, modelOps)
	at, err := runModel(root, seed, ops)
	if err == nil {
		return
	}
	full := formatOps(ops)
	ops = ops[:at+1]
	deadline := time.Now().Add(20 * time.Second)
	for shrunk := true; shrunk && time.Now().Before(deadline); {
		shrunk = false
		for i := len(ops) - 1; i >= 0; i-- {
			cand := append(append([]modelOp(nil), ops[:i]...), ops[i+1:]...)
			if at, cerr := runModel(root, seed, cand); cerr != nil {
				ops, err, shrunk = cand[:at+1], cerr, true
				i = min(i, len(ops))
			}
		}
	}
	t.Fatalf("seed %d: session model broken: %v\nops:\n%sshrunk to:\n%s", seed, err, full, formatOps(ops))
}

// FuzzSessionModel drives the session model from a seed. Plain go test
// replays seeds 1..modelSeeds, the model's fixed op budget.
func FuzzSessionModel(f *testing.F) {
	for seed := int64(1); seed <= modelSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkModel(t, seed)
	})
}
