// The docs-coverage check: every package in this repository — the facade,
// every package under internal/ and cmd/, the runnable examples, and the
// bench/ harness module — must carry a package-level doc comment. godoc is
// the contract each change leaves for the next one, so a missing package
// comment fails `go test ./...`.
package querc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPackageDocComments walks the repository and asserts that every
// package directory has a package doc comment (the comment group
// immediately above the package clause, per the go/doc convention) in at
// least one non-test file.
func TestPackageDocComments(t *testing.T) {
	documented := map[string]bool{} // package dir -> has a doc comment
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "models") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		documented[dir] = documented[dir] || (f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(documented) < 20 {
		t.Fatalf("walked only %d packages — is the check running from the module root?", len(documented))
	}

	dirs := make([]string, 0, len(documented))
	for dir := range documented {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !documented[dir] {
			t.Errorf("%s: package has no package-level doc comment — add one (// Package name ...) to a non-test file", dir)
		}
	}
}
