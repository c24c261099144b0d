package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dynsum/internal/faultinject"
)

func openT(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path, SyncAlways)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal holds %d records", len(recs))
	}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	for i, p := range payloads {
		if err := j.Append(uint64(i+1), p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs = openT(t, path)
	if len(recs) != len(payloads) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Epoch != uint64(i+1) || string(r.Payload) != string(payloads[i]) {
			t.Errorf("record %d = epoch %d %q, want epoch %d %q", i, r.Epoch, r.Payload, i+1, payloads[i])
		}
	}
}

// TestTornTailTruncatedAndReappendable: every proper prefix cut inside
// the final record must reopen silently with the last record dropped,
// and the reopened journal must accept new appends at the cut.
func TestTornTailTruncatedAndReappendable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path)
	if err := j.Append(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, []byte("second-record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := headerSize + recordSize + len("first-record")

	for cut := firstEnd + 1; cut < len(full); cut++ {
		torn := filepath.Join(t.TempDir(), "torn")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := Open(torn, SyncAlways)
		if err != nil {
			t.Fatalf("cut %d: torn tail must not error: %v", cut, err)
		}
		if len(recs) != 1 || string(recs[0].Payload) != "first-record" {
			t.Fatalf("cut %d: recovered %d records", cut, len(recs))
		}
		if err := j2.Append(2, []byte("replacement")); err != nil {
			t.Fatalf("cut %d: re-append: %v", cut, err)
		}
		j2.Close()
		_, recs2, err := Open(torn, SyncAlways)
		if err != nil {
			t.Fatalf("cut %d: reopen after re-append: %v", cut, err)
		}
		if len(recs2) != 2 || string(recs2[1].Payload) != "replacement" {
			t.Fatalf("cut %d: re-appended journal reopened with %d records", cut, len(recs2))
		}
	}
}

// TestCreationTornFile: a file shorter than the header (crash during
// creation) reopens as an empty journal; one contradicting the magic is
// corrupt.
func TestCreationTornFile(t *testing.T) {
	for _, n := range []int{0, 1, len(Magic) - 1, len(Magic), headerSize - 1} {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, []byte(Magic)[:min(n, len(Magic))], 0o644); err != nil {
			t.Fatal(err)
		}
		if n > len(Magic) {
			continue
		}
		j, recs, err := Open(path, SyncAlways)
		if err != nil {
			t.Fatalf("%d header bytes: %v", n, err)
		}
		if len(recs) != 0 {
			t.Fatalf("%d header bytes: %d records", n, len(recs))
		}
		j.Close()
	}

	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, SyncAlways)
	var ce *CorruptJournalError
	if !errors.As(err, &ce) {
		t.Fatalf("bad magic: err = %v, want *CorruptJournalError", err)
	}
	if ce.Path != path {
		t.Errorf("corruption error path = %q, want %q", ce.Path, path)
	}
}

// TestMidJournalCorruptionIsTyped: flipping any payload byte of a
// non-final record is fatal, not a torn tail.
func TestMidJournalCorruptionIsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path)
	if err := j.Append(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, []byte("second-record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+recordSize] ^= 0xff // first byte of record 0's payload

	_, _, err = Scan(data)
	var ce *CorruptJournalError
	if !errors.As(err, &ce) {
		t.Fatalf("Scan on corrupted record: err = %v, want *CorruptJournalError", err)
	}
	if ce.Record != 0 {
		t.Errorf("corruption reported at record %d, want 0", ce.Record)
	}
}

// TestInsaneDeclaredLengthIsTyped: a complete record header declaring a
// payload beyond MaxRecordLen is corruption (record headers are written
// whole, so a crash cannot produce it), reported as a typed error at the
// offending record rather than silently truncated as a torn tail — and
// the declared length is never used for an allocation.
func TestInsaneDeclaredLengthIsTyped(t *testing.T) {
	data := validJournal("good-epoch")
	data = binary.LittleEndian.AppendUint32(data, MaxRecordLen+1)
	data = binary.LittleEndian.AppendUint64(data, 2)
	data = binary.LittleEndian.AppendUint32(data, 0)
	data = append(data, "partial"...)

	_, _, err := Scan(data)
	var ce *CorruptJournalError
	if !errors.As(err, &ce) {
		t.Fatalf("Scan with insane length: err = %v, want *CorruptJournalError", err)
	}
	if ce.Record != 1 {
		t.Errorf("corruption reported at record %d, want 1", ce.Record)
	}

	// The same length that is merely too large for the remaining file but
	// within MaxRecordLen stays a torn tail.
	torn := validJournal("good-epoch")
	torn = binary.LittleEndian.AppendUint32(torn, MaxRecordLen)
	torn = binary.LittleEndian.AppendUint64(torn, 2)
	torn = binary.LittleEndian.AppendUint32(torn, 0)
	recs, good, err := Scan(torn)
	if err != nil {
		t.Fatalf("sane overrunning length must stay a torn tail, got %v", err)
	}
	if len(recs) != 1 || good != int64(len(validJournal("good-epoch"))) {
		t.Errorf("torn tail: %d records / good %d, want 1 / %d", len(recs), good, len(validJournal("good-epoch")))
	}

	// Append refuses to write a record Scan would reject.
	j, _ := openT(t, filepath.Join(t.TempDir(), "j"))
	defer j.Close()
	if err := j.Append(1, make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("Append beyond MaxRecordLen succeeded, want error")
	}
	if err := j.Append(1, []byte("still fine")); err != nil {
		t.Fatalf("journal unusable after refused append: %v", err)
	}
}

func TestResetEmptiesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path)
	if err := j.Append(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, []byte("after-reset")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 1 || recs[0].Epoch != 2 {
		t.Fatalf("post-reset journal reopened with %v", recs)
	}
}

func TestCloseIdempotent(t *testing.T) {
	j, _ := openT(t, filepath.Join(t.TempDir(), "j"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTruncateCutsBackToSize: Truncate to a size Size returned removes
// the records appended since, a record torn by an append fault included,
// and the journal appends at the cut; sizes outside the journal are
// refused.
func TestTruncateCutsBackToSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path)
	if got := j.Size(); got != int64(headerSize) {
		t.Fatalf("fresh journal size %d, want %d", got, headerSize)
	}
	if err := j.Append(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	kept := j.Size()
	if err := j.Append(2, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := j.Truncate(kept); err != nil {
		t.Fatal(err)
	}

	// An append torn between header and payload leaves bytes past Size.
	sched := faultinject.NewSchedule()
	sched.Arm(faultinject.JournalAppend, 1)
	faultinject.Activate(sched)
	func() {
		defer func() { recover() }()
		j.Append(2, []byte("torn"))
	}()
	faultinject.Deactivate()
	if fi, err := os.Stat(path); err != nil || fi.Size() == kept {
		t.Fatalf("torn append left %v bytes (%v), want more than %d", fi.Size(), err, kept)
	}
	if err := j.Truncate(kept); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != kept {
		t.Fatalf("after the cut the file has %v bytes (%v), want %d", fi.Size(), err, kept)
	}

	for _, bad := range []int64{int64(headerSize) - 1, kept + 1} {
		if err := j.Truncate(bad); err == nil {
			t.Errorf("Truncate(%d) on a %d-byte journal succeeded", bad, kept)
		}
	}
	if err := j.Append(2, []byte("replacement")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 2 || string(recs[0].Payload) != "kept" || string(recs[1].Payload) != "replacement" {
		t.Fatalf("cut journal reopened with %v", recs)
	}
}

// TestFailedTruncateRefusesUntilReset: a cut that fails may leave the
// records it was to remove in the file, so Err reports it and every
// Append and Sync refuses with it until a Reset rewrites the file.
func TestFailedTruncateRefusesUntilReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openT(t, path)
	kept := j.Size()
	if err := j.Append(1, []byte("not-applied")); err != nil {
		t.Fatal(err)
	}
	rw := j.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	j.f = ro // a read-only handle cannot cut the file
	if err := j.Truncate(kept); err == nil {
		t.Fatal("Truncate through a read-only handle succeeded")
	}
	j.f = rw
	cut := j.Err()
	if cut == nil {
		t.Fatal("Err is nil after a failed cut")
	}
	if err := j.Append(2, []byte("next")); err != cut {
		t.Errorf("Append after a failed cut = %v, want %v", err, cut)
	}
	if err := j.Sync(); err != cut {
		t.Errorf("Sync after a failed cut = %v, want %v", err, cut)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Err() != nil {
		t.Fatalf("Err after Reset = %v", j.Err())
	}
	if err := j.Append(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path)
	if len(recs) != 1 || string(recs[0].Payload) != "fresh" {
		t.Fatalf("reset journal reopened with %v", recs)
	}
}
