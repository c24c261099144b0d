// Package faultinject provides named, deterministically scheduled fault
// injection for the engine's crash-consistency tests.
//
// The engine's durability story (DESIGN.md §12) rests on a small set of
// commit points — the moments where a query or a mutation transitions
// shared state: a PPTA expansion touching scratch, the SCC write-back
// commit into the summary cache, the cache's putBatch segments, the
// overlay Apply stage→commit boundary, and the Compact rebuild. Each of
// those carries a Fire call naming its Point. In production the call is
// one atomic pointer load and a nil check; under test, an armed Schedule
// panics with *Fault at a chosen arrival, letting the test suite provoke
// a failure at exactly one lifecycle instant and then assert the
// validators stay green and clean re-runs match an uninjected oracle.
//
// Determinism: a Schedule counts arrivals per point with atomics and
// fires when the armed arrival index is hit. Single-threaded runs are
// exactly reproducible; concurrent runs fire at the n-th global arrival,
// whichever goroutine gets there. The sweep helper ArmArrivals derives
// arrival indices from a seed so CI can run a short deterministic
// schedule.
//
// The active schedule is process-global. Tests must Activate/Deactivate
// around the faulted region and must not run in parallel with other
// tests of the same package.
package faultinject

import (
	"fmt"
	"sync/atomic"
)

// Point names one injection site in the engine.
type Point uint8

const (
	// PPTAExpand fires once per PPTA state expansion (both the flat
	// worklist of runPPTA and the memoised memoExpand) — mid-query,
	// scratch dirty, nothing committed.
	PPTAExpand Point = iota
	// WriteBackCommit fires when a query with pending per-SCC summaries
	// reaches commitWriteBacks, before anything is materialised — the
	// last instant where an abort must leave the cache byte-identical.
	WriteBackCommit
	// CachePutBatch fires before each per-key step of a write-back's
	// publication — an insert into the private table, a reveal-or-skip
	// probe of the summary tier, an insert into the tier — mid-batch,
	// some of the run's keys published and the rest not.
	CachePutBatch
	// OverlayApply fires at the Overlay.Apply stage→commit boundary:
	// every change has been computed read-only, nothing installed.
	OverlayApply
	// CompactRebuild fires inside Overlay.Compact between metadata and
	// edge installation into the fresh builder graph — mid-rebuild, the
	// live overlay untouched.
	CompactRebuild

	// SnapshotWrite fires before each section write of a snapshot's temp
	// file — mid-write, the temp file partial, the installed snapshot (if
	// any) untouched.
	SnapshotWrite
	// SnapshotRename fires after the snapshot temp file is written and
	// fsynced, immediately before the atomic rename installs it.
	SnapshotRename
	// JournalAppend fires between a journal record's header write and its
	// payload write — the torn-tail state recovery must truncate away.
	JournalAppend
	// JournalSync fires after a journal record is fully written, before
	// the fsync that makes it durable.
	JournalSync
	// JournalRotate fires during snapshot+journal rotation, after the new
	// snapshot's rename landed but before the journal is reset — the
	// window the epoch-stamped skip rule on recovery exists for.
	JournalRotate

	// ServeAdmit fires on the admission path of the serve layer
	// (internal/serve), after quota and lane classification but before
	// the request is enqueued — nothing owned by the server yet.
	ServeAdmit
	// ServeDispatch fires in a lane's dispatcher as it pops a queued
	// request, before the expiry check and the worker handoff — the
	// request is owned by the server and must still be completed with a
	// typed error.
	ServeDispatch
	// ServeSessionApply fires in the serve layer's Apply before the
	// session's lock is taken, so before the delta is journaled or the
	// engine's ApplyDelta runs — the session must stay at its previous
	// epoch.
	ServeSessionApply
	// ServeDrain fires during graceful drain, once per dirty session
	// immediately before that session is persisted — other sessions'
	// persistence must be unaffected and a retry must succeed.
	ServeDrain

	// JournalTruncate fires in a journal cut (journal.Truncate) before
	// the file is cut — the records past the cut point are still there,
	// so the journal must refuse every later append and sync. It is
	// declared last so the points before it keep their values.
	JournalTruncate

	numPoints
)

var pointNames = [numPoints]string{
	PPTAExpand:      "ppta-expand",
	WriteBackCommit: "writeback-commit",
	CachePutBatch:   "cache-putbatch",
	OverlayApply:    "overlay-apply",
	CompactRebuild:  "compact-rebuild",
	SnapshotWrite:   "snapshot-write",
	SnapshotRename:  "snapshot-rename",
	JournalAppend:   "journal-append",
	JournalSync:     "journal-sync",
	JournalRotate:   "journal-rotate",

	ServeAdmit:        "serve-admit",
	ServeDispatch:     "serve-dispatch",
	ServeSessionApply: "serve-session-apply",
	ServeDrain:        "serve-drain",

	JournalTruncate: "journal-truncate",
}

func (p Point) String() string {
	if p < numPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("faultinject.Point(%d)", uint8(p))
}

// Points returns the full injection-point catalog, in declaration order.
// Sweeps iterate this so a new point is automatically covered.
func Points() []Point {
	pts := make([]Point, numPoints)
	for i := range pts {
		pts[i] = Point(i)
	}
	return pts
}

// Fault is the panic value thrown by an armed schedule. It implements
// error so recovery boundaries that wrap panic values (core's
// *QueryPanicError, *MutatorPanicError) expose it to errors.As.
type Fault struct {
	Point   Point
	Arrival int64 // 1-based arrival index at which the fault fired
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s arrival %d", f.Point, f.Arrival)
}

// AsFault unwraps a recovered panic value (or a wrapped error chain's
// leaf Value) back into the injected *Fault, if that is what it is.
func AsFault(v any) (*Fault, bool) {
	f, ok := v.(*Fault)
	return f, ok
}

// Schedule counts arrivals at every point and fires an armed point at a
// chosen arrival. The zero schedule (or an armed index of 0) never
// fires and just counts — use that to discover how many arrivals a
// workload produces before sweeping k = 1..N.
type Schedule struct {
	target [numPoints]atomic.Int64
	count  [numPoints]atomic.Int64
}

// NewSchedule returns a counting-only schedule; Arm points as needed.
func NewSchedule() *Schedule { return new(Schedule) }

// Arm sets point p to fire at its nth arrival (1-based). n <= 0 disarms
// the point (counting continues).
func (s *Schedule) Arm(p Point, nth int64) { s.target[p].Store(nth) }

// Arrivals returns how many times point p has been reached since the
// schedule was created.
func (s *Schedule) Arrivals(p Point) int64 { return s.count[p].Load() }

// ArmArrivals arms each given point at a deterministic arrival index in
// [1, maxArrival], derived from seed — the "short schedule" used by CI
// sweeps. Passing no points arms the whole catalog.
func (s *Schedule) ArmArrivals(seed int64, maxArrival int64, points ...Point) {
	if maxArrival < 1 {
		maxArrival = 1
	}
	if len(points) == 0 {
		points = Points()
	}
	x := uint64(seed)
	for _, p := range points {
		// splitmix64: cheap, seed-stable across runs and platforms.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s.Arm(p, 1+int64(z%uint64(maxArrival)))
	}
}

func (s *Schedule) fire(p Point) {
	n := s.count[p].Add(1)
	if t := s.target[p].Load(); t > 0 && n == t {
		panic(&Fault{Point: p, Arrival: n})
	}
}

// active is the process-global schedule; nil (the default) means every
// Fire call is one atomic load and a nil check.
var active atomic.Pointer[Schedule]

// Activate installs s as the process-global schedule. Pass the same
// schedule to multiple regions to accumulate counts across them.
func Activate(s *Schedule) { active.Store(s) }

// Deactivate removes the global schedule; Fire returns to its
// production cost. Always defer this next to Activate.
func Deactivate() { active.Store(nil) }

// Enabled reports whether a schedule is currently active.
func Enabled() bool { return active.Load() != nil }

// Fire marks an arrival at point p, panicking with *Fault if the active
// schedule armed this arrival. With no active schedule this is a single
// atomic pointer load — the only cost production binaries pay.
func Fire(p Point) {
	s := active.Load()
	if s == nil {
		return
	}
	s.fire(p)
}
