package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wantMarkers returns line -> expected message substrings for every
// `// want "..."` marker in the corpus directory.
func wantMarkers(t *testing.T, dir string) map[int][]string {
	t.Helper()
	out := map[int][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				out[i+1] = append(out[i+1], m[1])
			}
		}
	}
	return out
}

// TestPassesFireOnTestdata runs the driver over each pass's seeded
// corpus and checks the diagnostics against the // want markers — every
// marker fires, nothing unmarked fires, and each pass catches at least
// two seeded violations.
func TestPassesFireOnTestdata(t *testing.T) {
	cases := []struct {
		corpus string
		pass   string
	}{
		{"frozenmut", "frozenmut"},
		{"viewaware", "viewaware"},
		{"scratchpin", "scratchpin"},
		{"scratchreturn", "scratchreturn"},
		{"metricsdirect", "metricsdirect"},
		{"persistsync", "persistsync"},
		{"ctxflow", "ctxflow"},
	}
	for _, tc := range cases {
		t.Run(tc.corpus, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.corpus)
			u, err := LoadDir(dir, "dynsum/internal/lint/testdata/"+tc.corpus)
			if err != nil {
				t.Fatal(err)
			}
			want := wantMarkers(t, dir)
			diags := Run(u)

			matched := map[int]map[string]bool{}
			for _, d := range diags {
				if d.Pass != tc.pass {
					t.Errorf("unexpected pass %q fired on this corpus: %s", d.Pass, d)
					continue
				}
				subs := want[d.Pos.Line]
				ok := false
				for _, sub := range subs {
					if strings.Contains(d.Message, sub) {
						if matched[d.Pos.Line] == nil {
							matched[d.Pos.Line] = map[string]bool{}
						}
						matched[d.Pos.Line][sub] = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unwanted diagnostic: %s", d)
				}
			}
			total := 0
			for line, subs := range want {
				for _, sub := range subs {
					total++
					if !matched[line][sub] {
						t.Errorf("line %d: expected diagnostic containing %q did not fire", line, sub)
					}
				}
			}
			if total < 2 {
				t.Errorf("corpus seeds only %d violations; want at least 2", total)
			}
		})
	}
}

// TestMalformedDirectives checks that broken //lint:allow forms are
// reported rather than silently ignored: a missing pass name, an
// unknown pass name, and a missing reason.
func TestMalformedDirectives(t *testing.T) {
	dir := filepath.Join("testdata", "directives")
	u, err := LoadDir(dir, "dynsum/internal/lint/testdata/directives")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(u)
	wants := []string{
		"missing pass name",
		`unknown pass "nosuchpass"`,
		"a reason is required",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(wants), diags)
	}
	for i, want := range wants {
		if diags[i].Pass != "lint" || !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %s, want pass lint containing %q", i, diags[i], want)
		}
	}
}

// TestPassScoping checks the package-name scoping rules.
func TestPassScoping(t *testing.T) {
	for _, tc := range []struct {
		pass    string
		name    string
		applies bool
		pkgName string
	}{
		{"frozenmut", "exempt in pag", false, "pag"},
		{"frozenmut", "exempt in delta", false, "delta"},
		{"frozenmut", "applies elsewhere", true, "harness"},
		{"viewaware", "core only", true, "core"},
		{"viewaware", "not elsewhere", false, "harness"},
		{"scratchpin", "core only", true, "core"},
		{"scratchpin", "not elsewhere", false, "pag"},
		{"scratchreturn", "core only", true, "core"},
		{"scratchreturn", "not elsewhere", false, "delta"},
		{"metricsdirect", "everywhere", true, "stasum"},
		{"persistsync", "persist pkg", true, "persist"},
		{"persistsync", "journal pkg", true, "journal"},
		{"persistsync", "not elsewhere", false, "core"},
		{"ctxflow", "serve only", true, "serve"},
		{"ctxflow", "not elsewhere", false, "core"},
	} {
		var p Pass
		for _, q := range Passes() {
			if q.Name() == tc.pass {
				p = q
			}
		}
		if p == nil {
			t.Fatalf("pass %q not registered", tc.pass)
		}
		if got := p.AppliesTo(tc.pkgName, "x/"+tc.pkgName); got != tc.applies {
			t.Errorf("%s/%s: AppliesTo(%q) = %v, want %v", tc.pass, tc.name, tc.pkgName, got, tc.applies)
		}
	}
}

// TestTreeIsClean runs every pass over the real tree and requires
// silence: the committed //lint:allow directives must cover exactly the
// sanctioned sites and nothing else may fire. This is the executable
// form of the firewall being "on".
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree typecheck; skipped in -short (CI runs dynsumlint directly)")
	}
	units, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion broken?", len(units))
	}
	for _, u := range units {
		for _, d := range Run(u) {
			t.Errorf("%s", d)
		}
	}
}
