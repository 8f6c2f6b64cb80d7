package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its testdata/src/<name> package
// (invisible to go build) and checks the `// want "regexp"` comments there:
// every annotated line must produce a matching diagnostic, every diagnostic
// must be annotated, and directive-suppressed sites must stay silent.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			checkFixture(t, filepath.Join("testdata", "src", a.Name), a)
		})
	}
}

// checkFixture type-checks the fixture package in dir (standard-library
// imports only, resolved from source), runs a over it, and reports each
// mismatch between its diagnostics and the want comments, which anchor to
// their own line.
func checkFixture(t *testing.T, dir string, a *Analyzer) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	pkg, err := parseAndCheck("fixture/"+filepath.Base(dir), paths, nil)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				quoted, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				pat, err := strconv.Unquote(strings.TrimSpace(quoted))
				if err != nil {
					t.Fatalf("%s: want takes one quoted regexp: %v", at, err)
				}
				wants[at] = append(wants[at], &want{re: regexp.MustCompile(pat)})
			}
		}
	}
diagnostics:
	for _, d := range Check(pkg, []*Analyzer{a}) {
		for _, w := range wants[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				continue diagnostics
			}
		}
		t.Errorf("unexpected diagnostic at %s", d)
	}
	for at, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", at, w.re)
			}
		}
	}
}
