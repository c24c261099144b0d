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

func TestUnknownFlagFails(t *testing.T) {
	if code, out := run(t, "-no-such-flag"); code == 0 {
		t.Errorf("unknown flag exited 0:\n%s", out)
	}
}

func TestTinyBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jack.pag")
	code, out := run(t, "-bench", "jack", "-scale", "0.001", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.HasPrefix(out, "jack: methods=") || !strings.Contains(out, "-> "+path) {
		t.Errorf("no summary line for the emitted benchmark:\n%s", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("emitted file %s: %v", path, err)
	}
}
