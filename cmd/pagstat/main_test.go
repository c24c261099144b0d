package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dynsum/internal/mj"
	"dynsum/internal/persist"
)

// TestMain lets the test binary stand in for the command: run re-executes
// it with DYNSUM_RUN_MAIN set, and main runs instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DYNSUM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command with args and returns its exit status and
// combined output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DYNSUM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

const tinySrc = "class Main { static void main() { Object x; x = new Object(); } }\n"

// tinyProgram writes a one-method MiniJava program and returns its path.
func tinyProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.mj")
	if err := os.WriteFile(path, []byte(tinySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUnknownFlagFails(t *testing.T) {
	if code, out := run(t, "-no-such-flag"); code == 0 {
		t.Errorf("unknown flag exited 0:\n%s", out)
	}
}

func TestTinyProgram(t *testing.T) {
	code, out := run(t, tinyProgram(t))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "condense: sccs=0 largest=0 collapsed=0 nodes=3->3") {
		t.Errorf("no condense line for the frozen tiny program:\n%s", out)
	}
}

func TestValidate(t *testing.T) {
	code, out := run(t, "-validate", tinyProgram(t))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"graph (frozen): ok", "condensation: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// tinyStore creates a persistent store of the tiny program and returns
// its directory.
func tinyStore(t *testing.T) string {
	t.Helper()
	prog, _, err := mj.Compile("tiny.mj", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := persist.Create(dir, prog, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSnapshotIntegrity(t *testing.T) {
	code, out := run(t, "-snapshot", tinyStore(t))
	if code != 0 || !strings.Contains(out, "integrity: ok") {
		t.Errorf("exit %d:\n%s", code, out)
	}
}

// TestSnapshotFlippedByte: one flipped snapshot byte fails the checksum
// verification, and pagstat exits 1.
func TestSnapshotFlippedByte(t *testing.T) {
	dir := tinyStore(t)
	path := filepath.Join(dir, "snapshot.dsum")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := run(t, "-snapshot", dir); code != 1 || strings.Contains(out, "integrity: ok") {
		t.Errorf("exit %d:\n%s", code, out)
	}
}
