package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// tinyProgram writes a one-method MiniJava program and returns its path.
func tinyProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.mj")
	src := "class Main { static void main() { Object x; x = new Object(); } }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
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
	prog := tinyProgram(t)
	code, out := run(t, "-query", "Main.main.x", prog)
	if code != 0 {
		t.Fatalf("-query: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "pts(Main.main.x) = {Main.main.o@1(Object)}") {
		t.Errorf("-query output lacks the points-to line:\n%s", out)
	}
	code, out = run(t, "-client", "all", prog)
	if code != 0 {
		t.Fatalf("-client all: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "NullDeref/DYNSUM: 0 queries") {
		t.Errorf("-client all output lacks the NullDeref report:\n%s", out)
	}
}
