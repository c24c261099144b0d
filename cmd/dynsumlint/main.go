// Command dynsumlint runs the repository's invariant-firewall lint
// passes (see internal/lint) over the given packages, defaulting to the
// whole module. It exits 1 when any diagnostic survives the source's
// //lint:allow directives.
//
// Usage:
//
//	dynsumlint [-list] [packages]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"dynsum/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered passes and exit")
	flag.Parse()

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-14s %s\n", p.Name(), p.Doc())
		}
		return
	}

	// Patterns resolve at the module root, so the tool lints the same
	// packages from any subdirectory.
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsumlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	units, err := lint.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsumlint:", err)
		os.Exit(2)
	}

	bad := 0
	for _, u := range units {
		for _, d := range lint.Run(u) {
			fmt.Println(d)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "dynsumlint: %d issue(s)\n", bad)
		os.Exit(1)
	}
}

// moduleRoot locates the enclosing module's directory.
func moduleRoot() (string, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(out.String())
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
