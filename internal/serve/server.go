// Package serve is the overload-safe multi-tenant serving core
// (DESIGN.md §14): a session registry where every tenant session holds a
// private delta overlay over one shared frozen base graph, fronted by
// bounded admission queues that shed excess load with typed errors
// instead of blocking.
//
// The flow of one request: admission (state check → session lookup →
// tenant quota → lane classification → bounded enqueue-or-shed), then a
// per-lane dispatcher hands it to a worker, which runs the batch under
// the session's read lock with a cancellable context; a watchdog cancels
// requests that outlive their deadline. Nothing on the admission or
// dispatch path ever blocks on engine work, so the server's response to
// overload is a fast *OverloadError, never queue growth or a stalled
// caller.
//
// Persistence: with a StateDir, each session journals every delta as it
// applies it. Graceful drain: Drain stops admission, lets queued and
// in-flight work finish under a deadline (cancelling cooperatively past
// it), then persists every dirty session — the base snapshot written
// beside its journal, the journal synced — so a drained process restarts
// with every tenant's state recoverable through the ordinary
// persist.Open path.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
)

// Config sizes the server. The zero value gets usable defaults (two
// workers and a 64-deep queue per lane, 2ms watchdog resolution, no
// quotas, no default deadline, no persistence).
type Config struct {
	// Workers is the worker-goroutine count per lane.
	Workers int
	// QueueDepth bounds each lane's admission queue; an admission finding
	// the queue full sheds with *OverloadError.
	QueueDepth int
	// Quota is the per-tenant token bucket; zero disables quotas.
	Quota QuotaConfig
	// DefaultDeadline applies to requests that carry none; 0 means no
	// deadline.
	DefaultDeadline time.Duration
	// WatchdogInterval is the deadline-scan resolution (default 2ms).
	WatchdogInterval time.Duration
	// StateDir, when set, is where Drain persists dirty sessions (one
	// subdirectory per session ID).
	StateDir string
	// Engine configures every session's core.DynSum.
	Engine core.Config
	// Prepare, when set, runs on every new session engine before it serves
	// queries — the hook dynsumd uses to enable open-world mode and apply
	// library specs. A Prepare error fails the session's creation.
	Prepare func(*core.DynSum) error
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = 2 * time.Millisecond
	}
	return c
}

// Request is one admission candidate: a session's batch of points-to
// queries, charged to the session's tenant, with an optional deadline
// relative to admission time.
type Request struct {
	Session string
	Queries []core.Query
	// Deadline, when positive, bounds the request from admission to
	// completion; 0 falls back to Config.DefaultDeadline.
	Deadline time.Duration
}

// Response is a completed (admitted and run) request. Results are
// positionally aligned with the request's queries and may individually
// carry engine errors (budget exhaustion, cancellation, quarantined
// panics) — request-level refusals arrive as Do's error instead.
type Response struct {
	Results []core.Result
	Lane    Lane
	Queued  time.Duration // admission to worker pickup
	Ran     time.Duration // worker pickup to completion
}

type request struct {
	sess     *Session
	tenant   string
	queries  []core.Query
	lane     Lane
	ctx      context.Context
	deadline time.Time // zero = none
	enqueued time.Time

	// completed makes completion single-winner: the worker, the
	// dispatcher, and the watchdog (expiring an overdue queued request)
	// can all try to complete; exactly one CAS succeeds.
	completed atomic.Bool
	done      chan struct{}
	resp      *Response
	err       error
}

type lane struct {
	id    Lane
	queue chan *request
	work  chan *request
}

const (
	stateRunning int32 = iota
	stateDraining
	stateClosed
)

// Server is the serving core. Create with NewServer, stop with Drain.
type Server struct {
	cfg     Config
	base    *pag.Program
	ctxs    *intstack.Table
	tier    *core.SummaryTier
	quotas  *quotas
	metrics serveMetrics

	// admitMu is the admission/lifecycle gate: every producer into a lane
	// queue holds it for reading across the state check and the enqueue,
	// and Drain holds it for writing only to flip the state. That pairing
	// is what makes closing the queues safe — once Drain has the write
	// lock, no producer can be between "state is running" and its send.
	admitMu sync.RWMutex
	state   atomic.Int32
	// aborted flips when the drain deadline expires: dispatchers stop
	// handing work to workers and complete queued requests with a typed
	// draining *OverloadError instead.
	aborted atomic.Bool

	lanes [numLanes]*lane

	sessMu   sync.RWMutex
	sessions map[string]*Session

	inflight  inflightSet
	watchStop chan struct{}
	watchWG   sync.WaitGroup
	wg        sync.WaitGroup // dispatchers + workers
	// journalBytes counts the bytes sessions journaled for applied
	// epochs since start.
	journalBytes atomic.Int64
	// applies counts Apply calls admitted while running. Apply runs on the
	// caller's goroutine, not a worker, so Drain waits for these too
	// before persisting — otherwise an apply that raced the drain could
	// bump a session's epoch after persistDirty had skipped it as clean.
	applies sync.WaitGroup

	// now is the clock, swappable in tests (quota refill, deadlines).
	now func() time.Time
}

// NewServer starts a server over the frozen base program: per-lane
// dispatchers and worker pools plus the deadline watchdog. base.G must
// be frozen (sessions lay delta overlays over it; it is never written).
// Every session shares one context-stack table, so points-to sets from
// different sessions — and from oracle engines built with Ctxs() — are
// directly comparable, and one summary tier, so a base summary is stored
// once however many sessions compute it (each session still sees only
// the summaries it computed itself).
func NewServer(base *pag.Program, cfg Config) (*Server, error) {
	if base == nil || base.G == nil {
		return nil, errors.New("serve: nil base program")
	}
	if !base.G.Frozen() {
		return nil, errors.New("serve: base program must be frozen")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		base:      base,
		ctxs:      new(intstack.Table),
		tier:      core.NewSummaryTier(base.G, cfg.Engine),
		quotas:    newQuotas(cfg.Quota),
		sessions:  make(map[string]*Session),
		watchStop: make(chan struct{}),
		now:       time.Now,
	}
	s.inflight.m = make(map[*request]*inflightEntry)
	for i := range s.lanes {
		l := &lane{
			id:    Lane(i),
			queue: make(chan *request, cfg.QueueDepth),
			work:  make(chan *request),
		}
		s.lanes[i] = l
		s.wg.Add(1 + cfg.Workers)
		go s.dispatch(l)
		for w := 0; w < cfg.Workers; w++ {
			go s.worker(l)
		}
	}
	s.watchWG.Add(1)
	go s.watchdog()
	return s, nil
}

// Ctxs returns the context-stack table shared by every session's engine;
// oracle engines built with it produce directly comparable points-to
// sets (core.PointsToSet.Equal).
func (s *Server) Ctxs() *intstack.Table { return s.ctxs }

// Ready reports whether the server admits requests — the /readyz signal.
func (s *Server) Ready() bool { return s.state.Load() == stateRunning }

// Draining reports a drain in progress or completed.
func (s *Server) Draining() bool { return s.state.Load() != stateRunning }

// CreateSession registers a new session for tenant over the shared base
// and the server's summary tier.
func (s *Server) CreateSession(id, tenant string) (*Session, error) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.state.Load() != stateRunning {
		return nil, ErrNotRunning
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[id]; ok {
		return nil, &DuplicateSessionError{ID: id}
	}
	sess := &Session{
		ID:     id,
		Tenant: tenant,
		eng:    s.tier.NewDynSum(s.ctxs),
	}
	if s.cfg.Prepare != nil {
		if err := s.cfg.Prepare(sess.eng); err != nil {
			return nil, fmt.Errorf("serve: prepare session %s: %w", id, err)
		}
	}
	s.sessions[id] = sess
	return sess, nil
}

// Session returns the registered session, or nil.
func (s *Server) Session(id string) *Session {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return s.sessions[id]
}

// Sessions returns a snapshot of all registered sessions.
func (s *Server) Sessions() []*Session {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// Do admits and runs one request, blocking until it completes, is
// refused, or ctx is done. Refusals are always typed: *OverloadError
// (lane queue full, or draining), *QuotaError, *UnknownSessionError,
// *BadQueryError (a variable outside the session's program),
// *ExpiredError (deadline passed while queued), *PanicError (a fault
// crossed a serve boundary). A ctx cancellation abandons the wait — the
// server still completes the request internally (no goroutine or slot
// leaks), the caller just stops listening.
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := s.admit(ctx, req)
	if err != nil {
		return nil, err
	}
	select {
	case <-r.done:
		return r.resp, r.err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// admit performs the full admission pipeline and either enqueues the
// request or returns the typed refusal. It never blocks: the enqueue is
// a non-blocking send, and everything before it is lock arithmetic.
func (s *Server) admit(ctx context.Context, req Request) (r *request, err error) {
	defer func() {
		if v := recover(); v != nil {
			r, err = nil, asPanicError("admit", v)
		}
	}()
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.state.Load() != stateRunning {
		return nil, &OverloadError{Draining: true}
	}
	sess := s.Session(req.Session)
	if sess == nil {
		return nil, &UnknownSessionError{ID: req.Session}
	}
	tenant := sess.Tenant
	now := s.now()
	if ok, retry := s.quotas.allow(tenant, now); !ok {
		s.metrics.tenant(tenant, func(tc *TenantCounters) { tc.QuotaRejected++ })
		return nil, &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	laneID, err := s.classify(sess, req.Queries)
	if err != nil {
		return nil, err
	}
	l := s.lanes[laneID]
	faultinject.Fire(faultinject.ServeAdmit)
	r = &request{
		sess:     sess,
		tenant:   tenant,
		queries:  req.Queries,
		lane:     laneID,
		ctx:      ctx,
		enqueued: now,
		done:     make(chan struct{}),
	}
	if d := req.Deadline; d > 0 {
		r.deadline = now.Add(d)
	} else if s.cfg.DefaultDeadline > 0 {
		r.deadline = now.Add(s.cfg.DefaultDeadline)
	}
	select {
	case l.queue <- r:
		// Tracked from admission, not first traversal, so the watchdog can
		// expire a request whose deadline passes while it is still queued —
		// the caller gets its typed *ExpiredError at the deadline, not
		// whenever a worker finally frees up.
		s.inflight.track(r)
		s.metrics.lanes[laneID].admitted.Add(1)
		s.metrics.tenant(tenant, func(tc *TenantCounters) { tc.Admitted++ })
		return r, nil
	default:
		s.metrics.lanes[laneID].shed.Add(1)
		s.metrics.tenant(tenant, func(tc *TenantCounters) { tc.Shed++ })
		return nil, &OverloadError{Lane: laneID, QueueLen: len(l.queue), QueueCap: cap(l.queue)}
	}
}

// classify checks that every queried variable is a node of the session's
// view (base plus delta-added nodes; deltas never remove one) and probes
// the session's summary cache: an all-warm footprint is cheap, anything
// else a whale. It holds the session read lock, like a query.
func (s *Server) classify(sess *Session, queries []core.Query) (Lane, error) {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	nodes := sess.eng.Graph().NumNodes()
	if ov := sess.eng.Overlay(); ov != nil {
		nodes = ov.NumNodes()
	}
	lane := LaneCheap
	for _, q := range queries {
		if q.Var < 0 || int(q.Var) >= nodes {
			return 0, &BadQueryError{Var: int64(q.Var), Limit: int64(nodes)}
		}
		if lane == LaneCheap && !sess.eng.SummaryCached(q.Var) {
			lane = LaneWhale
		}
	}
	return lane, nil
}

// dispatch moves one lane's admissions to its workers. During an aborted
// drain it completes queued requests with a typed draining refusal
// instead, so the queue always empties and close(work) is reached.
func (s *Server) dispatch(l *lane) {
	defer s.wg.Done()
	defer close(l.work)
	for r := range l.queue {
		if r.completed.Load() {
			continue // expired in the queue; its caller already has the error
		}
		if s.aborted.Load() {
			if s.complete(r, nil, &OverloadError{Lane: l.id, Draining: true}) {
				s.metrics.lanes[l.id].shed.Add(1)
			}
			continue
		}
		if err := s.fireDispatch(); err != nil {
			s.complete(r, nil, err)
			continue
		}
		l.work <- r
	}
}

// fireDispatch is the dispatcher's fault boundary: an injected panic at
// the dispatch point becomes a typed refusal for the one request in
// hand, never a dead dispatcher.
func (s *Server) fireDispatch() (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = asPanicError("dispatch", v)
		}
	}()
	faultinject.Fire(faultinject.ServeDispatch)
	return nil
}

func (s *Server) worker(l *lane) {
	defer s.wg.Done()
	for r := range l.work {
		s.run(l, r)
	}
}

// run executes one admitted request: expiry check, watchdog
// registration, then the batch under the session read lock with a
// cancellable context (the watchdog cancels it at the deadline; the
// engine aborts cooperatively within one budget poll interval).
func (s *Server) run(l *lane, r *request) {
	defer func() {
		if v := recover(); v != nil {
			s.complete(r, nil, asPanicError("run", v))
		}
	}()
	if r.completed.Load() {
		return // expired in the queue between dispatch and pickup
	}
	lc := &s.metrics.lanes[l.id]
	now := s.now()
	expired := r.ctx.Err() != nil || // caller abandoned the wait while queued
		(!r.deadline.IsZero() && now.After(r.deadline))
	if expired {
		if s.complete(r, nil, &ExpiredError{Lane: l.id, Waited: now.Sub(r.enqueued)}) {
			lc.expired.Add(1)
		}
		return
	}
	ctx, cancel := context.WithCancelCause(r.ctx)
	s.inflight.arm(r, cancel)
	started := s.now()
	r.sess.mu.RLock()
	results := r.sess.eng.BatchPointsToCtx(ctx, r.queries, 1)
	r.sess.mu.RUnlock()
	cancel(nil)
	ok := s.complete(r, &Response{
		Results: results,
		Lane:    l.id,
		Queued:  started.Sub(r.enqueued),
		Ran:     s.now().Sub(started),
	}, nil)
	if !ok {
		return
	}
	lc.completed.Add(1)
	if s.Draining() {
		lc.drained.Add(1)
	}
	for i := range results {
		var qp *core.QueryPanicError
		if errors.As(results[i].Err, &qp) {
			lc.quarantined.Add(1)
		}
	}
}

// complete resolves a request exactly once, whoever gets there first,
// and reports whether this call was the winner (the winner also owns the
// outcome's metrics).
func (s *Server) complete(r *request, resp *Response, err error) bool {
	if !r.completed.CompareAndSwap(false, true) {
		return false
	}
	s.inflight.untrack(r)
	r.resp, r.err = resp, err
	close(r.done)
	return true
}

// Apply applies one delta epoch to a session, serialised against that
// session's in-flight queries (and only that session's). With a StateDir
// the log's wire encoding is journaled first (write-ahead) and cut off
// again if the epoch does not apply, so the session's journal always
// holds exactly its applied history; a failed append refuses the epoch
// with the engine untouched. An epoch whose auto-compaction failed stays
// applied (and journaled), and the error matches core.ErrAutoCompact. A
// panic during apply — injected or real — surfaces as a typed
// *PanicError; the engine's own mutator quarantine has already kept the
// overlay consistent or marked the session broken
// (core.MutatorPanicError semantics).
func (s *Server) Apply(ctx context.Context, sessionID string, log *delta.Log) (res core.DeltaResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = core.DeltaResult{}, asPanicError("apply", v)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	s.admitMu.RLock()
	if s.state.Load() != stateRunning {
		s.admitMu.RUnlock()
		return res, &OverloadError{Draining: true}
	}
	s.applies.Add(1)
	s.admitMu.RUnlock()
	defer s.applies.Done()
	sess := s.Session(sessionID)
	if sess == nil {
		return res, &UnknownSessionError{ID: sessionID}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	faultinject.Fire(faultinject.ServeSessionApply)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var applied bool
	if s.cfg.StateDir == "" {
		res, err = sess.eng.ApplyDelta(log)
		applied = core.EpochApplied(err)
	} else {
		var journaled int64
		res, applied, journaled, err = sess.applyJournaled(s.sessionDir(sess), log)
		s.journalBytes.Add(journaled)
	}
	if applied {
		sess.epoch.Add(1)
	}
	return res, err
}

// sessionDir is the session's store directory under Config.StateDir.
func (s *Server) sessionDir(sess *Session) string {
	return filepath.Join(s.cfg.StateDir, sess.ID)
}

// Drain gracefully stops the server: admission closes immediately (new
// requests get a typed draining *OverloadError), queued and in-flight
// requests run to completion while ctx lasts, then anything still
// running is cancelled cooperatively and anything still queued refused —
// either way every accepted request completes and every worker exits.
// Finally each dirty session is persisted to Config.StateDir (when set)
// — its base snapshot written and its journal synced — recoverable with
// persist.Open, and every session's journal is closed.
// Per-session persistence failures are collected (errors.Join), never
// allowed to stop the other sessions. Drain returns ErrNotRunning if the
// server is already draining or closed.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.admitMu.Lock()
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		s.admitMu.Unlock()
		return ErrNotRunning
	}
	s.admitMu.Unlock()
	// No producer can now be mid-send (admission holds admitMu for
	// reading across state check + send, and sees stateDraining), so
	// closing the queues is safe.
	for _, l := range s.lanes {
		close(l.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: flip dispatchers to refusal mode and cancel every
		// in-flight traversal; the engine aborts cooperatively, so the
		// pipeline drains promptly.
		s.aborted.Store(true)
		s.inflight.cancelAll(context.Cause(ctx))
		<-done
	}
	close(s.watchStop)
	s.watchWG.Wait()
	s.applies.Wait()
	err := s.persistDirty()
	s.state.Store(stateClosed)
	return err
}

// persistDirty persists every dirty session, then syncs and closes every
// session's journal — a failed persist included, so PersistSession's
// retry need only write the snapshot.
func (s *Server) persistDirty() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	var errs []error
	for _, sess := range s.Sessions() {
		if sess.Epoch() > 0 { // a clean session is still the shared base
			if err := s.persistSession(sess); err != nil {
				errs = append(errs, fmt.Errorf("session %s: %w", sess.ID, err))
			}
		}
		sess.mu.Lock()
		err := sess.closeJournal()
		sess.mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// PersistSession persists one session's state immediately — the retry
// path when Drain reported a per-session persistence failure (e.g. an
// injected drain fault), and usable for snapshotting a session while the
// server runs: it writes the session directory's base snapshot and syncs
// the journal its applies wrote.
func (s *Server) PersistSession(id string) error {
	if s.cfg.StateDir == "" {
		return errors.New("serve: no StateDir configured")
	}
	sess := s.Session(id)
	if sess == nil {
		return &UnknownSessionError{ID: id}
	}
	return s.persistSession(sess)
}

func (s *Server) persistSession(sess *Session) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = asPanicError("drain", v)
		}
	}()
	faultinject.Fire(faultinject.ServeDrain)
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	if err := persist.WriteBaseSnapshot(s.sessionDir(sess), s.base); err != nil {
		return err
	}
	return sess.syncJournal()
}

// MetricsSnapshot returns the serving counters plus engine metrics and
// summary counts summed over every session — the /metrics payload.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Ready: s.Ready(),
		Lanes: make(map[string]LaneCounters, numLanes),
	}
	for i := range s.metrics.lanes {
		snap.Lanes[Lane(i).String()] = s.metrics.lanes[i].snapshot()
	}
	s.metrics.mu.Lock()
	snap.Tenants = make(map[string]TenantCounters, len(s.metrics.tenants))
	for name, tc := range s.metrics.tenants {
		snap.Tenants[name] = *tc
	}
	s.metrics.mu.Unlock()
	sessions := s.Sessions()
	snap.Sessions = len(sessions)
	snap.Summaries.TierEntries = int64(s.tier.Entries())
	snap.Summaries.TierBytes = s.tier.Bytes()
	for _, sess := range sessions {
		snap.Engine.Add(sess.eng.Metrics().Snapshot())
		visible, private := sess.eng.SummaryCounts()
		snap.Summaries.Visible += int64(visible)
		snap.Summaries.Private += int64(private)
		snap.OverlayBytes += sess.overlayBytes()
	}
	snap.JournalBytes = s.journalBytes.Load()
	return snap
}

func asPanicError(stage string, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return newPanicError(stage, v)
}
