package main

import (
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"slices"
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

func TestTable1(t *testing.T) {
	code, out := run(t, "-table", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Table 1: DYNSUM traversals answering the points-to queries for s1 and s2") {
		t.Errorf("no Table 1 heading:\n%s", out)
	}
}

// TestCSVMatchesText: every one-table selection emits CSV that parses,
// whose header is the header line of the same selection's text table.
func TestCSVMatchesText(t *testing.T) {
	cells := regexp.MustCompile(`\s{2,}`)
	for _, sel := range [][]string{
		{"-table", "1"}, {"-table", "2"}, {"-table", "3"}, {"-table", "4"},
		{"-figure", "4"}, {"-figure", "5"}, {"-parallel"}, {"-evolve"}, {"-openworld"},
	} {
		t.Run(strings.Join(sel, ""), func(t *testing.T) {
			args := append([]string{"-scale", "0.005"}, sel...)
			code, text := run(t, args...)
			if code != 0 {
				t.Fatalf("text: exit %d:\n%s", code, text)
			}
			code, out := run(t, append(args, "-csv")...)
			if code != 0 {
				t.Fatalf("csv: exit %d:\n%s", code, out)
			}
			recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
			if err != nil {
				t.Fatalf("invalid CSV: %v\n%s", err, out)
			}
			if len(recs) < 2 {
				t.Fatalf("CSV has %d records:\n%s", len(recs), out)
			}
			for _, line := range strings.Split(text, "\n") {
				if slices.Equal(cells.Split(strings.TrimSpace(line), -1), recs[0]) {
					return
				}
			}
			t.Errorf("no text line is the CSV header %q:\n%s", recs[0], text)
		})
	}
}

// TestCSVNeedsOneTable: -csv refuses a selection of several tables, and
// an empty selection is refused with or without it.
func TestCSVNeedsOneTable(t *testing.T) {
	for _, args := range [][]string{
		{"-csv", "-ablations"}, {"-csv", "-table", "1", "-figure", "4"}, {"-csv", "-all"},
		{"-csv"}, {}, {"-table", "5"},
	} {
		if code, out := run(t, args...); code != 2 {
			t.Errorf("%q: exit %d, want 2:\n%s", args, code, out)
		}
	}
}
