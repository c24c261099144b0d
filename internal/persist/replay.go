package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

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
// session journals each epoch as it applies it (OpenReplay) and
// persisting it is one base snapshot plus a journal sync
// (WriteBaseSnapshot) — no per-session re-apply, no summary export, no
// quiescing beyond the session itself.

// OpenReplay starts dir as a replay image and returns its journal, empty
// and under SyncNever: the caller appends epoch i's payload as record i
// and syncs the journal when it persists the image. A snapshot left in
// dir by an earlier image is removed first, so the directory never pairs
// it with the new journal.
func OpenReplay(dir string) (*journal.Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	jr, recs, err := journal.Open(filepath.Join(dir, journalFile), journal.SyncNever)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		// Leftovers of a previous image: the new one starts at epoch 0.
		if err := jr.Reset(); err != nil {
			jr.Close()
			return nil, err
		}
	}
	return jr, nil
}

// WriteBaseSnapshot installs the epoch-0 snapshot of base in dir,
// creating dir if needed, durable before return.
func WriteBaseSnapshot(dir string, base *pag.Program) error {
	snap, err := programSnapshot(0, base)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSnapshot(dir, snap)
}

// SaveReplay writes dir as the replay image of a session that evolved
// base through the given payloads, all durable before return.
func SaveReplay(dir string, base *pag.Program, payloads [][]byte) error {
	jr, err := OpenReplay(dir)
	if err != nil {
		return err
	}
	for i, p := range payloads {
		if err := jr.Append(uint64(i+1), p); err != nil {
			jr.Close()
			return fmt.Errorf("persist: session epoch %d not journaled: %w", i+1, err)
		}
	}
	if err := WriteBaseSnapshot(dir, base); err != nil {
		jr.Close()
		return err
	}
	// One fsync for the whole journal (SyncNever): the history is written
	// in one burst, so per-record fsyncs would only multiply the cost.
	if err := jr.Sync(); err != nil {
		jr.Close()
		return err
	}
	return jr.Close()
}
