package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for Check.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg mirrors the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (e.g. "./...") in dir,
// test variants included, using `go list -export` so dependencies are
// resolved from compiler export data instead of re-typechecking the world.
// The synthesized .test mains are skipped — their files are generated.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,ImportMap,Error",
		"-deps", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var pkgs []*listPkg
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		pkgs = append(pkgs, lp)
	}

	var loaded []*Package
	for _, lp := range pkgs {
		if !isLintTarget(lp) {
			continue
		}
		var paths []string
		for _, name := range lp.GoFiles {
			if !filepath.IsAbs(name) {
				name = filepath.Join(lp.Dir, name)
			}
			paths = append(paths, name)
		}
		p, err := parseAndCheck(lp.ImportPath, paths, func(importPath string) (io.ReadCloser, error) {
			resolved := importPath
			if mapped, ok := lp.ImportMap[importPath]; ok {
				resolved = mapped
			}
			exp, ok := exports[resolved]
			if !ok {
				return nil, fmt.Errorf("no export data for %q (resolved %q)", importPath, resolved)
			}
			return os.Open(exp)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		loaded = append(loaded, p)
	}
	return loaded, nil
}

// isLintTarget filters the -deps -test closure down to this module's real
// packages: no stdlib, no pure dependencies, no synthesized .test mains.
func isLintTarget(lp *listPkg) bool {
	if lp.Standard || lp.DepOnly || len(lp.GoFiles) == 0 {
		return false
	}
	if strings.HasSuffix(lp.ImportPath, ".test") {
		return false
	}
	return lp.Error == nil
}

// parseAndCheck parses the files at paths and type-checks them as package
// importPath. lookup opens the compiler export data of an import; a nil
// lookup type-checks imports from source instead, which is how the
// analyzer fixtures (standard-library imports only) load.
func parseAndCheck(importPath string, paths []string, lookup importer.Lookup) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "source", nil)
	if lookup != nil {
		imp = importer.ForCompiler(fset, "gc", lookup)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}
