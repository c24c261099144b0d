package persist

import (
	"fmt"
	"path/filepath"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist/journal"
)

// Options configures a Store. The zero value is usable: fsync on every
// journal append, default engine config, summaries persisted on Compact.
type Options struct {
	// Sync selects the journal's fsync policy (default SyncAlways).
	Sync journal.SyncPolicy
	// Config is the engine configuration. Replay determinism: reopen with
	// the same Config the store appended under, or auto-compaction
	// thresholds may replay differently (harmless for answers, but the
	// engine's compaction count will differ from the dead process's).
	Config core.Config
	// DisableCache / DisableCondense carry the engine ablation toggles
	// through a reopen.
	DisableCache    bool
	DisableCondense bool
	// SkipSummaries leaves the summary cache out of snapshots written by
	// Compact, trading warm-start time for snapshot size.
	SkipSummaries bool
	// Ctxs optionally shares a context-stack table with other engines so
	// their points-to sets are directly comparable (see core.NewDynSum);
	// nil gives the engine a private table.
	Ctxs *intstack.Table
}

// Store is a program graph with crash-safe residence on disk: a snapshot
// file plus an append-only journal of applied deltas. Its Engine answers
// queries as usual; Append applies an epoch and journals it durably;
// Compact rotates the journal into a fresh snapshot. Like the engine's
// own mutators, Store methods must not race in-flight queries.
type Store struct {
	dir  string
	opts Options
	prog *pag.Program
	eng  *core.DynSum
	jr   *journal.Journal

	// epoch counts applied deltas since the store was created — snapshot
	// epoch plus journal records after it. It is the store's durability
	// clock, independent of the overlay's internal epoch (which resets at
	// every compaction).
	epoch uint64
}

// Create initialises dir as a store for prog: an epoch-0 snapshot and an
// empty journal, both durable before return. prog.G must be frozen. The
// directory is created if needed; existing store files are overwritten.
func Create(dir string, prog *pag.Program, opts Options) (*Store, error) {
	if err := WriteBaseSnapshot(dir, prog); err != nil {
		return nil, err
	}
	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), opts.Sync)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		// Stale journal from a previous store in this dir: the fresh
		// snapshot is epoch 0, so nothing in it may replay.
		if err := jr.Reset(); err != nil {
			jr.Close()
			return nil, err
		}
	}
	s := &Store{dir: dir, opts: opts, prog: prog, jr: jr}
	s.eng = s.newEngine(prog.G)
	return s, nil
}

// Open recovers the store in dir: the snapshot is loaded with every
// checksum and structural invariant verified, a fresh engine is built
// (with the persisted summary cache, when present), and the journal is
// replayed epoch by epoch through ApplyDelta. Records at or below the
// snapshot's epoch are skipped — the leftovers of a crash between
// snapshot rotation and journal reset — and the rest must be
// consecutive. The recovered engine passes CheckIntegrity before Open
// returns.
func Open(dir string, opts Options) (*Store, error) {
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	g, err := pag.FromImage(snap.img)
	if err != nil {
		return nil, corruptSection("csr", err)
	}
	prog := pag.NewProgram(snap.name, g)
	prog.Casts = snap.casts
	prog.Derefs = snap.derefs
	prog.Factories = snap.factories
	if err := prog.CheckSites(); err != nil {
		return nil, corruptSection("sites", err)
	}

	s := &Store{dir: dir, opts: opts, prog: prog, epoch: snap.epoch}
	s.eng = s.newEngine(g)
	if err := s.eng.ImportSummaries(snap.cache); err != nil {
		return nil, corruptSection("cache", err)
	}

	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), opts.Sync)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		if rec.Epoch <= snap.epoch {
			continue // pre-rotation leftover; the snapshot already holds it
		}
		if rec.Epoch != s.epoch+1 {
			jr.Close()
			return nil, &CorruptJournalError{Path: jr.Path(), Record: i, Offset: -1,
				Reason: fmt.Sprintf("epoch %d out of sequence (want %d)", rec.Epoch, s.epoch+1)}
		}
		l, err := delta.DecodeLog(rec.Payload)
		if err != nil {
			jr.Close()
			return nil, &CorruptJournalError{Path: jr.Path(), Record: i, Offset: -1,
				Reason: fmt.Sprintf("undecodable delta log: %v", err)}
		}
		if _, err := s.eng.ApplyDelta(l); err != nil {
			jr.Close()
			return nil, &CorruptJournalError{Path: jr.Path(), Record: i, Offset: -1,
				Reason: fmt.Sprintf("delta log does not replay: %v", err)}
		}
		s.epoch++
	}
	s.rebindProgram()
	if err := s.eng.CheckIntegrity(); err != nil {
		jr.Close()
		return nil, fmt.Errorf("persist: recovered engine fails integrity check: %w", err)
	}
	s.jr = jr
	return s, nil
}

// Append applies one epoch of program changes and journals it: the log is
// encoded (logs are single-use — ApplyDelta consumes them), applied to
// the engine, then appended to the journal under the next epoch number.
// When Append returns nil the epoch is as durable as the sync policy
// promises; on error the journal holds at worst a torn tail that
// recovery truncates, so an unacknowledged epoch never replays.
func (s *Store) Append(l *delta.Log) (core.DeltaResult, error) {
	payload := l.AppendBinary(nil)
	res, err := s.eng.ApplyDelta(l)
	if err != nil {
		return res, err
	}
	s.rebindProgram()
	if err := s.jr.Append(s.epoch+1, payload); err != nil {
		return res, fmt.Errorf("persist: epoch %d applied in memory but not journaled: %w", s.epoch+1, err)
	}
	s.epoch++
	return res, nil
}

// Compact rotates the store: the engine's overlay (if any) is merged into
// a fresh frozen graph, a new snapshot at the current epoch is installed
// atomically — including the summary cache, unless Options.SkipSummaries
// — and the journal is reset. A crash anywhere in between recovers: before
// the rename the old snapshot and full journal still replay; after the
// rename but before the reset, the stale journal records carry epochs at
// or below the new snapshot's and are skipped.
func (s *Store) Compact() error {
	if s.eng.Overlay() != nil {
		if err := s.eng.Compact(); err != nil {
			return err
		}
		s.rebindProgram()
	}
	img, err := s.eng.Graph().Image()
	if err != nil {
		return err
	}
	snap := &snapshot{
		epoch:     s.epoch,
		name:      s.prog.Name,
		img:       img,
		casts:     s.prog.Casts,
		derefs:    s.prog.Derefs,
		factories: s.prog.Factories,
	}
	if !s.opts.SkipSummaries {
		snap.cache = s.eng.ExportSummaries()
	}
	if err := writeSnapshot(s.dir, snap); err != nil {
		return err
	}
	return s.jr.Reset()
}

// rebindProgram repoints the store's Program at the engine's current
// graph after a mutator may have swapped it (Compact, or auto-compaction
// inside ApplyDelta). IDs are stable across compaction, so the site
// tables carry over; the Program is rebuilt so its lazy indexes do not
// outlive the graph they were computed on.
func (s *Store) rebindProgram() {
	if s.prog.G == s.eng.Graph() {
		return
	}
	p := pag.NewProgram(s.prog.Name, s.eng.Graph())
	p.Casts = s.prog.Casts
	p.Derefs = s.prog.Derefs
	p.Factories = s.prog.Factories
	s.prog = p
}

// Engine returns the store's query engine.
func (s *Store) Engine() *core.DynSum { return s.eng }

// Program returns the store's program view (graph plus client sites).
// Retrieve it again after Append or Compact — mutators may rebind it to
// a compacted graph.
func (s *Store) Program() *pag.Program { return s.prog }

// Epoch returns how many delta epochs the store has applied since
// creation.
func (s *Store) Epoch() uint64 { return s.epoch }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal. Safe to call twice, and safe to call on a
// store whose last operation failed mid-write.
func (s *Store) Close() error {
	if s.jr == nil {
		return nil
	}
	jr := s.jr
	s.jr = nil
	return jr.Close()
}

func (s *Store) newEngine(g *pag.Graph) *core.DynSum {
	eng := core.NewDynSum(g, s.opts.Config, s.opts.Ctxs)
	eng.DisableCache = s.opts.DisableCache
	eng.DisableCondense = s.opts.DisableCondense
	return eng
}
