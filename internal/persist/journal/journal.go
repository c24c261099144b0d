// Package journal implements the append-only delta journal of the
// persistence layer (internal/persist): one length-prefixed, CRC32-guarded
// record per applied epoch, so a restart replays exactly the epochs the
// dead process made durable.
//
// Failure policy (DESIGN.md §13): the journal distinguishes a *torn tail*
// from *mid-journal corruption*. A record that simply stops early —
// short header or short payload at end of file, the signature of a crash
// mid-append — is not an error: the tail is truncated away, every record
// before it replays, and the journal is re-appendable at the truncation
// point. A record that is fully present but fails its CRC is corruption
// the crash model cannot produce, and surfaces as a typed
// *CorruptJournalError; replaying past it could resurrect a half-written
// epoch as real program state.
//
// A corrupted length field narrows the classic length-prefix blind spot
// to its minimum: record headers are written in a single Write, so a
// crash leaves either a short header (torn tail, truncated) or a complete
// one whose length is genuine. A complete header declaring more than
// MaxRecordLen is therefore bit-rot, not a crash, and surfaces as a
// typed *CorruptJournalError; a sane length that merely overruns the
// remaining file is the torn-payload tail and truncates as before. No
// declared length is ever trusted for an allocation — payloads are
// subslices of bytes already read, bounded by the file itself.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dynsum/internal/faultinject"
)

// Magic opens every journal file; Version guards the record layout.
const (
	Magic   = "DSUMJRNL"
	Version = 1

	headerSize = len(Magic) + 4 // magic + u32 version
	recordSize = 4 + 8 + 4      // u32 payload length + u64 epoch + u32 crc
)

// MaxRecordLen bounds a record's declared payload length (64 MiB). One
// record holds one encoded delta.Log epoch — orders of magnitude smaller
// in practice — so a complete header declaring more than this is
// corruption (see the package comment for why it cannot be a torn tail),
// reported as a typed *CorruptJournalError instead of being silently
// folded into tail truncation. Append enforces the same bound on the
// write side.
const MaxRecordLen = 64 << 20

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record returned from Append
	// survives a crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: faster, and a crash may lose
	// the most recent appends (they become a torn tail on reopen).
	SyncNever
)

// CorruptJournalError reports mid-journal corruption: a record that is
// fully present but wrong (bad CRC, bad magic, impossible layout). It is
// fatal for the journal — replay must not continue past it — but the
// snapshot it extends is unaffected.
type CorruptJournalError struct {
	Path   string // journal file, "" when scanning raw bytes
	Record int    // 0-based index of the bad record; -1 for header damage
	Offset int64  // byte offset of the damage
	Reason string
}

func (e *CorruptJournalError) Error() string {
	where := "journal"
	if e.Path != "" {
		where = e.Path
	}
	if e.Record < 0 {
		return fmt.Sprintf("persist: %s corrupt: %s (offset %d)", where, e.Reason, e.Offset)
	}
	return fmt.Sprintf("persist: %s corrupt at record %d: %s (offset %d)", where, e.Record, e.Reason, e.Offset)
}

// Record is one scanned journal entry: the epoch it advanced the store to
// and the wire-encoded delta.Log payload.
type Record struct {
	Epoch   uint64
	Payload []byte
}

// Scan parses journal bytes: the header, then records until the torn
// tail. good is the byte length of the intact prefix (header plus whole
// records) — reopening truncates the file to it. A CRC failure on a
// complete record returns a *CorruptJournalError; a short tail does not.
func Scan(data []byte) (recs []Record, good int64, err error) {
	if len(data) < headerSize {
		// A file this short is a crash during creation: everything it
		// could hold is a torn tail, unless it contradicts the magic.
		if len(data) > 0 && string(data[:min(len(data), len(Magic))]) != Magic[:min(len(data), len(Magic))] {
			return nil, 0, &CorruptJournalError{Record: -1, Offset: 0, Reason: "bad magic"}
		}
		return nil, 0, nil
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, &CorruptJournalError{Record: -1, Offset: 0, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, 0, &CorruptJournalError{Record: -1, Offset: int64(len(Magic)),
			Reason: fmt.Sprintf("journal version %d, want %d", v, Version)}
	}
	off := headerSize
	for off < len(data) {
		if len(data)-off < recordSize {
			break // torn header
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		epoch := binary.LittleEndian.Uint64(data[off+4:])
		sum := binary.LittleEndian.Uint32(data[off+12:])
		if plen > MaxRecordLen {
			// The header is complete (checked above), so this length was
			// written whole: an insane value is bit-rot in the prefix, not
			// a crash artifact, and truncating here could silently drop
			// good epochs that follow.
			return nil, 0, &CorruptJournalError{Record: len(recs), Offset: int64(off),
				Reason: fmt.Sprintf("declared record length %d exceeds maximum %d", plen, int64(MaxRecordLen))}
		}
		if int(plen) > len(data)-off-recordSize {
			break // torn payload at end of file
		}
		payload := data[off+recordSize : off+recordSize+int(plen)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, 0, &CorruptJournalError{Record: len(recs), Offset: int64(off),
				Reason: fmt.Sprintf("record CRC mismatch (stored %08x, computed %08x)", sum, got)}
		}
		recs = append(recs, Record{Epoch: epoch, Payload: payload})
		off += recordSize + int(plen)
	}
	return recs, int64(off), nil
}

// Journal is an open journal file positioned for appending.
type Journal struct {
	path string
	f    *os.File
	sync SyncPolicy
	size int64 // header plus whole records appended
	// broken is set when a Truncate failed: the file may still hold
	// the records it was to cut, so Append and Sync refuse with it until
	// a Reset rewrites the file.
	broken error
}

// Open opens (creating if needed) the journal at path, scans its records,
// truncates a torn tail so the file ends on a record boundary, and
// returns the writer plus the surviving records. Payload slices alias one
// read of the file and stay valid until the caller drops them.
func Open(path string, sync SyncPolicy) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := Scan(data)
	if err != nil {
		f.Close()
		if ce, ok := err.(*CorruptJournalError); ok {
			ce.Path = path
		}
		return nil, nil, err
	}
	j := &Journal{path: path, f: f, sync: sync}
	if good < int64(headerSize) {
		// Fresh or creation-torn file: (re)write the header.
		if err := j.reset(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, nil, nil
	}
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.size = good
	return j, recs, nil
}

// Append writes one record and, under SyncAlways, makes it durable before
// returning. The header and payload are written separately: a crash (or
// injected fault) in between leaves exactly the torn tail Scan truncates.
func (j *Journal) Append(epoch uint64, payload []byte) error {
	if j.broken != nil {
		return j.broken
	}
	if len(payload) > MaxRecordLen {
		return fmt.Errorf("journal: record payload %d bytes exceeds MaxRecordLen %d", len(payload), int64(MaxRecordLen))
	}
	var hdr [recordSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], epoch)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	faultinject.Fire(faultinject.JournalAppend)
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	j.size += int64(recordSize + len(payload))
	faultinject.Fire(faultinject.JournalSync)
	if j.sync == SyncAlways {
		return j.f.Sync()
	}
	return nil
}

// Size returns the journal's length in bytes: the header and every
// record Append wrote whole.
func (j *Journal) Size() int64 { return j.size }

// Truncate cuts the journal back to size, a length Size returned, so the
// records appended since are gone — and a torn record too, when an
// append failed midway. Durable before return regardless of the sync
// policy, like Reset. When the cut itself fails, the file may still hold
// those records: every later Append and Sync fails with the cut's error
// until a Reset succeeds.
func (j *Journal) Truncate(size int64) error {
	if size < int64(headerSize) || size > j.size {
		return fmt.Errorf("journal: truncate to %d outside [%d, %d]", size, headerSize, j.size)
	}
	// Refuse appends while the cut is under way, so a cut that stops
	// midway — a panic included — leaves the journal refusing.
	broken := j.broken
	j.broken = fmt.Errorf("journal: cut to %d bytes interrupted, %s may hold records past it", size, j.path)
	faultinject.Fire(faultinject.JournalTruncate)
	err := j.f.Truncate(size)
	if err == nil {
		_, err = j.f.Seek(size, io.SeekStart)
	}
	if err == nil {
		j.size = size
		err = j.f.Sync()
	}
	if err != nil {
		j.broken = fmt.Errorf("journal: cut to %d bytes failed, %s may hold records past it: %w", size, j.path, err)
		return j.broken
	}
	j.broken = broken
	return nil
}

// Err returns the error of a failed Truncate that every Append and Sync
// refuses with, nil while the journal is sound.
func (j *Journal) Err() error { return j.broken }

// Reset truncates the journal back to an empty (header-only) file — the
// rotation step after a new snapshot has been installed. Durable before
// return regardless of the sync policy.
func (j *Journal) Reset() error {
	faultinject.Fire(faultinject.JournalRotate)
	return j.reset()
}

func (j *Journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint32(hdr[len(Magic):], Version)
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	j.size = int64(headerSize)
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.broken = nil
	return nil
}

// Sync flushes appended records to stable storage regardless of the
// sync policy — the batch counterpart to SyncAlways for writers that
// append under SyncNever and make the journal durable once (an attached
// persist.Store's Sync).
func (j *Journal) Sync() error {
	if j.f == nil {
		return os.ErrClosed
	}
	if j.broken != nil {
		return j.broken
	}
	return j.f.Sync()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the file. Every write of a SyncAlways journal was synced
// as it was made; records appended under SyncNever are durable only if
// Sync ran since. Safe to call twice.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	return f.Close()
}
