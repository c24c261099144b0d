package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dynsum/internal/pag"
)

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder. The
// contract under test: no panic ever, and every failure is typed — a
// *CorruptSnapshotError or an ErrSnapshotVersion wrap, reachable through
// errors.As/Is. When the bytes do decode, the result must survive a
// re-encode/re-decode round trip and feed pag.FromImage without panicking
// (FromImage may well reject it — the image-level validators run there).
// The committed corpus under testdata/fuzz/FuzzSnapshotDecode holds a
// pristine snapshot plus deterministic corruptions of every class
// (truncations, bit flips in framing/CRC/payload, bad magic, bad
// version); plain `go test` replays it.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range corruptedSnapshotSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			var ce *CorruptSnapshotError
			if !errors.As(err, &ce) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped decode failure: %v (%T)", err, err)
			}
			return
		}
		re := encodeSnapshot(s)
		if _, err := decodeSnapshot(re); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if _, err := pag.FromImage(s.img, s.fieldOrder); err != nil {
			// Rejection is fine; only a panic would fail the target.
			return
		}
	})
}

// corruptedSnapshotSeeds builds the in-process seed set: a small real
// snapshot and systematic damage to it. The committed corpus was written
// from exactly this set (see TestWriteFuzzCorpus).
func corruptedSnapshotSeeds() [][]byte {
	good := encodeSnapshot(testSnapshot())
	seeds := [][]byte{good, nil, []byte("DSUMSNAP")}
	// Truncations: header boundary, a section boundary, mid-payload.
	for _, cut := range []int{4, snapHeaderSize, snapHeaderSize + sectionHdrSize, len(good) / 2, len(good) - 1} {
		if cut <= len(good) {
			seeds = append(seeds, good[:cut])
		}
	}
	// Bit flips marching through framing, CRCs and payloads.
	for pos := 0; pos < len(good); pos += len(good)/16 + 1 {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x20
		seeds = append(seeds, bad)
	}
	// Version skew and section-count lies.
	skew := append([]byte(nil), good...)
	skew[len(Magic)] = 0x7f
	seeds = append(seeds, skew)
	lies := append([]byte(nil), good...)
	lies[len(Magic)+4] = 0xff
	seeds = append(seeds, lies)
	// Trailing garbage.
	seeds = append(seeds, append(append([]byte(nil), good...), 0xde, 0xad))
	return seeds
}

// testSnapshot builds a tiny deterministic snapshot for the fuzz seeds.
func testSnapshot() *snapshot {
	s, err := programSnapshot(2, frozenProgram(3))
	if err != nil {
		panic(err)
	}
	return s
}

// TestWriteFuzzCorpus regenerates the committed corpus when
// PERSIST_WRITE_CORPUS=1. By default it fails when the committed seeds
// are not exactly corruptedSnapshotSeeds(): after a snapshot format
// change, stale seeds would stop at the version check and reach no
// section decoder.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	seeds := corruptedSnapshotSeeds()
	body := func(seed []byte) string {
		return "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
	}
	if os.Getenv("PERSIST_WRITE_CORPUS") == "" {
		const regen = "set PERSIST_WRITE_CORPUS=1 to rewrite it"
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("committed fuzz corpus missing at %s (%s): %v", dir, regen, err)
		}
		if len(ents) != len(seeds) {
			t.Fatalf("committed fuzz corpus at %s holds %d seeds, corruptedSnapshotSeeds() %d (%s)", dir, len(ents), len(seeds), regen)
		}
		for i, seed := range seeds {
			name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("%v (%s)", err, regen)
			}
			if string(got) != body(seed) {
				t.Errorf("committed fuzz seed %s is not corruptedSnapshotSeeds()[%d] (%s)", name, i, regen)
			}
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body(seed)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
