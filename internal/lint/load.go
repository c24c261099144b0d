package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// listedPackage is the slice of `go list -export -deps -json` output the
// loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string // the compiler's export data for the package
	DepOnly    bool   // listed only as a dependency of the patterns
}

// Load expands patterns (e.g. "./...") with `go list` in dir and returns
// one type-checked Unit per package. The packages are checked from
// source; their imports are read from the export data the compiler
// leaves in the build cache, so nothing is checked twice. Test files are
// excluded: the firewall guards production code, and tests legitimately
// poke internals (corrupting graphs is their job).
func Load(dir string, patterns ...string) ([]*Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	var units []*Unit
	for _, p := range pkgs {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		u, err := check(fset, imp, p.ImportPath, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Path < units[j].Path })
	return units, nil
}

// LoadDir type-checks every non-test .go file directly under dir as one
// package with the synthetic import path pkgPath. Used for the testdata
// corpora, which go tooling ignores by convention; dir must be inside
// the module, whose packages the corpora import.
func LoadDir(dir, pkgPath string) (*Unit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, filepath.Join(dir, n))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// The corpus is no package go list knows, so list what it imports.
	fset := token.NewFileSet()
	imports := map[string]bool{}
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, is := range f.Imports {
			path, err := strconv.Unquote(is.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[path] = true
		}
	}
	var imp types.Importer = importer.ForCompiler(fset, "gc", nil)
	if len(imports) > 0 {
		pkgs, err := goList(dir, slices.Sorted(maps.Keys(imports)))
		if err != nil {
			return nil, err
		}
		imp = exportImporter(fset, pkgs)
	}
	return check(fset, imp, pkgPath, files)
}

// exportImporter imports the listed packages from their export data.
func exportImporter(fset *token.FileSet, pkgs []listedPackage) types.Importer {
	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := export[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// check parses and type-checks one file set as a package.
func check(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Unit, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Unit{
		Name:  pkg.Name(),
		Path:  path,
		Fset:  fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// goList runs `go list -export -deps -json` over the patterns in dir:
// the packages they name and every dependency, each with the export data
// the compiler wrote for it.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Name,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
