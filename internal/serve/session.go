package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/persist"
	"dynsum/internal/persist/journal"
)

// Session is one tenant's private view of the shared program: its own
// core.DynSum whose delta.Overlay floats over the server's frozen base
// graph, on the server's shared summary tier. The base is never written —
// every session (and the server's oracle users) reads the same immutable
// CSR arrays — and the tier only ever gains base summaries, each visible
// to a session only once that session computed it, so sessions are
// isolated by construction: one session's ApplyDelta touches only its
// own overlay, visibility bits and private summaries.
//
// Concurrency follows the engine's quiescence contract (DESIGN.md §10):
// queries on one session may run concurrently with anything on other
// sessions, but a session's mutators must not race its own queries. The
// session RWMutex encodes exactly that — queries and lane-classifier
// probes take RLock, Server.Apply takes Lock — serialising apply against
// this session's in-flight queries and nothing else.
type Session struct {
	// ID names the session in the registry, in request routing, and as
	// the per-session state directory under Config.StateDir.
	ID string
	// Tenant is the quota principal charged for every one of the
	// session's requests.
	Tenant string

	mu  sync.RWMutex
	eng *core.DynSum

	// epoch counts applied deltas; it is atomic so dirtiness checks and
	// tests read it without touching the lock.
	epoch atomic.Uint64

	// With Config.StateDir set, jr is the session's write-ahead journal:
	// each delta's wire encoding is appended before the engine applies
	// it and cut off again if the apply fails, so the journal always
	// holds exactly the applied history (a failed cut makes it refuse
	// every later append and sync). It is opened at the first apply and
	// closed by Drain; jrErr keeps a failed cut's error past the close,
	// so a persist after Drain is refused too. Both are guarded by mu.
	jr    *journal.Journal
	jrErr error
}

// Engine exposes the session's engine for direct (test/oracle) use.
// Callers must honour the quiescence contract themselves — the serve
// path does it via the session lock.
func (s *Session) Engine() *core.DynSum { return s.eng }

// Epoch returns how many deltas the session has applied; 0 means the
// session is clean (still the shared base) and need not be persisted.
func (s *Session) Epoch() uint64 { return s.epoch.Load() }

// overlayBytes returns what the session's delta overlay holds itself
// (delta.Stats.Bytes), 0 for a session that never evolved.
func (s *Session) overlayBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ov := s.eng.Overlay(); ov != nil {
		return ov.Stats().Bytes
	}
	return 0
}

// applyJournaled applies log to the session's engine with write-ahead
// journaling (persist.ApplyJournaled), opening the journal in dir at the
// first apply. applied reports whether the engine kept the epoch, and
// journaled the bytes the epoch added to the journal. The caller holds mu
// for writing.
func (s *Session) applyJournaled(dir string, log *delta.Log) (res core.DeltaResult, applied bool, journaled int64, err error) {
	if s.jr == nil {
		jr, err := persist.OpenReplay(dir)
		if err != nil {
			return res, false, 0, fmt.Errorf("serve: session %s: open journal: %w", s.ID, err)
		}
		s.jr = jr
	}
	size := s.jr.Size()
	res, applied, err = persist.ApplyJournaled(s.jr, s.Epoch()+1, s.eng, log)
	if applied {
		journaled = s.jr.Size() - size
	}
	return res, applied, journaled, err
}

// syncJournal makes the journaled epochs durable. A journal Drain
// closed was synced then, unless a cut had failed. The caller holds mu.
func (s *Session) syncJournal() error {
	err := s.jrErr
	if s.jr != nil {
		err = s.jr.Sync()
	}
	if err != nil {
		return fmt.Errorf("serve: session %s: sync journal: %w", s.ID, err)
	}
	return nil
}

// closeJournal syncs and releases the session's journal, if it has one.
// The caller holds mu for writing.
func (s *Session) closeJournal() error {
	if s.jr == nil {
		return nil
	}
	s.jrErr = s.jr.Err()
	err := s.jr.Sync()
	if cerr := s.jr.Close(); err == nil {
		err = cerr
	}
	s.jr = nil
	if err != nil {
		return fmt.Errorf("serve: session %s: close journal: %w", s.ID, err)
	}
	return nil
}
