package persist

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
	"dynsum/internal/persist/journal"
)

// Options configures a Store. The zero value is usable: default engine
// config. The journal fsyncs every append, and Compact persists the
// summary cache.
type Options struct {
	// Config is the engine configuration. Replay determinism: reopen with
	// the same Config the store appended under, or auto-compaction
	// thresholds may replay differently (harmless for answers, but the
	// engine's compaction count will differ from the dead process's). A
	// snapshot's summaries are keyed for the adjacency mode they were
	// computed in; reopened under the other DisableCondense, the engine
	// starts cold.
	Config core.Config
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
	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), journal.SyncAlways)
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
	s.eng = core.NewDynSum(prog.G, opts.Config, opts.Ctxs)
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
	g, err := pag.FromImage(snap.img, snap.fieldOrder)
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
	s.eng = core.NewDynSum(g, opts.Config, opts.Ctxs)
	if err := s.eng.ImportSummaries(snap.cache); err != nil {
		return nil, corruptSection("cache", err)
	}

	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), journal.SyncAlways)
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
		// An epoch whose auto-compaction fails during replay is still
		// applied, on the overlay the failed Compact left in place.
		if _, err := s.eng.ApplyDelta(l); !core.EpochApplied(err) {
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

// ApplyJournaled applies l to eng as the given epoch with write-ahead
// journaling: l's wire encoding is appended to jr as that epoch's record
// first, then the engine applies it, and the record is cut off again
// unless the engine keeps the epoch — on an error or a panic — so jr
// holds exactly the applied history. applied reports whether the engine
// kept the epoch: it is true with a nil error, and also when the epoch
// applied but its auto-compaction failed (core.ErrAutoCompact). A crash
// between the journal write and the cut leaves a record the engine never
// acknowledged, which recovery may replay. A failed cut leaves jr
// refusing further appends (journal.Truncate).
func ApplyJournaled(jr *journal.Journal, epoch uint64, eng *core.DynSum, l *delta.Log) (res core.DeltaResult, applied bool, err error) {
	size := jr.Size()
	defer func() {
		if !applied {
			if cerr := jr.Truncate(size); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()
	enc := encBufs.Get().(*[]byte)
	*enc = l.AppendBinary((*enc)[:0])
	err = jr.Append(epoch, *enc)
	encBufs.Put(enc)
	if err != nil {
		return res, false, fmt.Errorf("persist: journal epoch %d: %w", epoch, err)
	}
	res, err = eng.ApplyDelta(l)
	return res, core.EpochApplied(err), err
}

// encBufs holds the buffers ApplyJournaled encodes deltas into. The
// journal writes a payload out before Append returns, so a buffer is free
// again at once; pooling them, rather than keeping one per journal, keeps
// an idle session from holding the largest delta it ever applied.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// Append applies one epoch of program changes and journals it under the
// next epoch number, write-ahead (ApplyJournaled). When Append returns
// nil the epoch is durable. An epoch whose auto-compaction failed stays
// applied and journaled, and the error matches core.ErrAutoCompact; on
// any other error the engine and the journal are as they were.
func (s *Store) Append(l *delta.Log) (core.DeltaResult, error) {
	res, applied, err := ApplyJournaled(s.jr, s.epoch+1, s.eng, l)
	if applied {
		s.epoch++
		s.rebindProgram()
	}
	return res, err
}

// Compact rotates the store: the engine's overlay (if any) is merged into
// a fresh frozen graph, a new snapshot at the current epoch is installed
// atomically — including the summary cache — and the journal is reset.
// A crash anywhere in between recovers: before the rename the old
// snapshot and full journal still replay; after the rename but before the
// reset, the stale journal records carry epochs at or below the new
// snapshot's and are skipped.
func (s *Store) Compact() error {
	if s.eng.Overlay() != nil {
		if err := s.eng.Compact(); err != nil {
			return err
		}
	}
	s.rebindProgram()
	snap, err := programSnapshot(s.epoch, s.prog)
	if err != nil {
		return err
	}
	snap.cache = s.eng.ExportSummaries()
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
