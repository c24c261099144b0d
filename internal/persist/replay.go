package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"dynsum/internal/core"
	"dynsum/internal/pag"
	"dynsum/internal/persist/journal"
)

// A replay image is a store directory for a session that evolved a
// frozen base program through wire-encoded delta epochs: an epoch-0
// snapshot of the (never-written) base plus a journal carrying the
// epochs as records 1..n. Open recovers it like any store — replay
// through the live ApplyDelta, integrity-checked — so answers from the
// reopened engine match the session that produced the epochs, provided
// it is reopened under the session's engine Config (the usual replay-
// determinism contract, see Options.Config).
//
// This is the serve layer's persistence path: many tenant sessions share
// one frozen base and each carries only its private delta history, so a
// session's store is attached over its engine (Attach), journals each
// epoch as it applies it, and persisting it is one base snapshot plus a
// journal sync (Sync) — no per-session re-apply, no summary export, no
// quiescing beyond the session itself.

// Attach starts dir as the replay image of eng, an engine over base with
// no delta applied yet, and returns its store at epoch 0. The store
// journals under SyncNever: Append writes each epoch without an fsync,
// and Sync installs the base snapshot and makes the journal durable. What
// an earlier store left in dir is cleared first — its snapshot removed,
// so the directory never pairs it with the new journal, and its journal
// emptied — so dir cannot be reopened until the first Sync.
func Attach(dir string, base *pag.Program, eng *core.DynSum) (*Store, error) {
	return attach(dir, base, eng, journal.SyncNever)
}

// attach starts dir afresh as a store over eng, an engine on base at
// epoch 0, journaling under policy; Create and Attach differ only in it.
// The epoch-0 snapshot is left for Sync to install.
func attach(dir string, base *pag.Program, eng *core.DynSum, policy journal.SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), policy)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		// Leftovers of an earlier store: the new one starts at epoch 0.
		if err := jr.Reset(); err != nil {
			jr.Close()
			return nil, err
		}
	}
	return &Store{dir: dir, prog: base, eng: eng, jr: jr, base: base}, nil
}

// SaveReplay writes dir as the replay image of a session that evolved
// base through the given payloads, all durable before return — the
// bytes an attached store's Append and Sync write for the same epochs.
func SaveReplay(dir string, base *pag.Program, payloads [][]byte) error {
	// No engine: the payloads are journaled as they are, not applied.
	s, err := Attach(dir, base, nil)
	if err != nil {
		return err
	}
	defer s.jr.Close()
	for i, p := range payloads {
		if err := s.jr.Append(uint64(i+1), p); err != nil {
			return fmt.Errorf("persist: session epoch %d not journaled: %w", i+1, err)
		}
	}
	// One fsync for the whole journal (SyncNever): the history is written
	// in one burst, so per-record fsyncs would only multiply the cost.
	if err := s.Sync(); err != nil {
		return err
	}
	return s.jr.Close()
}
