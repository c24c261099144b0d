package serve

import (
	"sync"
	"sync/atomic"

	"dynsum/internal/core"
	"dynsum/internal/persist"
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

	// With Config.StateDir set, st is the session's store: it journals
	// each delta write-ahead as the session applies it and makes the
	// session durable when it is persisted. It is attached at the first
	// apply or the first persist, whichever comes first, and closed by
	// Drain. Guarded by mu.
	st *persist.Store
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
