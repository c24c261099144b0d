package serve

import (
	"sync"
	"sync/atomic"

	"dynsum/internal/core"
)

// Lane is a request size class. Admission probes the session's summary
// cache (core.DynSum.SummaryCached) for every queried variable: a request
// whose whole footprint is warm is cheap — it will be answered mostly by
// cache lookups — while anything needing a cold PPTA traversal is a
// whale. Each lane has its own bounded queue and worker pool, so a burst
// of whales saturates the whale lane and sheds whales; warm lookups keep
// flowing beside them (the cheap-lane p99 bound in the overload tests).
type Lane int

const (
	LaneCheap Lane = iota
	LaneWhale

	numLanes = 2
)

func (l Lane) String() string {
	switch l {
	case LaneCheap:
		return "cheap"
	case LaneWhale:
		return "whale"
	}
	return "unknown"
}

// laneCounters is the hot-path form: workers and the admission path add
// with atomics, never under a lock.
type laneCounters struct {
	admitted        atomic.Int64
	shed            atomic.Int64
	expired         atomic.Int64
	completed       atomic.Int64
	drained         atomic.Int64
	deadlineCancels atomic.Int64
	quarantined     atomic.Int64
}

// LaneCounters is one lane's lifetime counters. Every admitted request
// ends in exactly one of Expired or Completed; Shed requests were never
// admitted. Drained counts the subset of Completed that finished while
// the server was draining; DeadlineCancels requests the watchdog
// canceled mid-run (they still complete, with partial ErrCanceled
// results); Quarantined counts per-query *QueryPanicError results that
// the engine's slot isolation contained.
type LaneCounters struct {
	Admitted        int64 `json:"admitted"`
	Shed            int64 `json:"shed"`
	Expired         int64 `json:"expired"`
	Completed       int64 `json:"completed"`
	Drained         int64 `json:"drained"`
	DeadlineCancels int64 `json:"deadline_cancels"`
	Quarantined     int64 `json:"quarantined"`
}

func (c *laneCounters) snapshot() LaneCounters {
	return LaneCounters{
		Admitted:        c.admitted.Load(),
		Shed:            c.shed.Load(),
		Expired:         c.expired.Load(),
		Completed:       c.completed.Load(),
		Drained:         c.drained.Load(),
		DeadlineCancels: c.deadlineCancels.Load(),
		Quarantined:     c.quarantined.Load(),
	}
}

// TenantCounters attributes admission outcomes to one tenant:
// Admitted/Shed mirror the lane counters, QuotaRejected counts token-
// bucket refusals (which never reach a lane).
type TenantCounters struct {
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	QuotaRejected int64 `json:"quota_rejected"`
}

// serveMetrics is the server's counter block: per-lane atomics plus a
// small mutex-guarded tenant map (tenant cardinality is low and the map
// is touched once per admission, so a lock is fine there).
type serveMetrics struct {
	lanes [numLanes]laneCounters

	mu      sync.Mutex
	tenants map[string]*TenantCounters
}

func (m *serveMetrics) tenant(name string, f func(*TenantCounters)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tenants == nil {
		m.tenants = make(map[string]*TenantCounters)
	}
	tc := m.tenants[name]
	if tc == nil {
		tc = &TenantCounters{}
		m.tenants[name] = tc
	}
	f(tc)
}

// SummaryCounters shows how the server's summaries are stored: the
// entries and heap bytes of the shared summary tier, and, summed over
// every session, the tier entries each session sees and the private
// entries sessions hold (evolved or open-world sessions cannot share).
// Visible+Private is what per-session caches would hold; Visible over
// TierEntries is the dedup ratio.
type SummaryCounters struct {
	TierEntries int64 `json:"tier_entries"`
	TierBytes   int64 `json:"tier_bytes"`
	Visible     int64 `json:"visible"`
	Private     int64 `json:"private"`
}

// MetricsSnapshot is one consistent-enough read of the serving state:
// lane and tenant counters, the session count, readiness, the
// engine-level metrics summed across every session (each session's
// core.Metrics.Snapshot added together), the summary storage counts, the
// bytes the sessions' delta overlays hold (delta.Stats.Bytes summed; the
// shared base is not counted) and the bytes sessions journaled for
// applied deltas since start (0 without a StateDir). It is what /metrics
// serves.
type MetricsSnapshot struct {
	Ready        bool                      `json:"ready"`
	Sessions     int                       `json:"sessions"`
	Lanes        map[string]LaneCounters   `json:"lanes"`
	Tenants      map[string]TenantCounters `json:"tenants"`
	Engine       core.Metrics              `json:"engine"`
	Summaries    SummaryCounters           `json:"summaries"`
	OverlayBytes int64                     `json:"overlay_bytes"`
	JournalBytes int64                     `json:"journal_bytes"`
}
