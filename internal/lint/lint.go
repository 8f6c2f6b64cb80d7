// Package lint is querclint: a suite of project-specific static analyzers
// that machine-check the concurrency, hot-path, and error-handling
// invariants this codebase established informally. The suite is built
// directly on the standard library's go/ast + go/types (no
// golang.org/x/tools dependency) and is run by cmd/querclint
// (go run ./cmd/querclint ./...). Two neighbouring invariants are checked
// elsewhere: go vet's copylocks check forbids copying lock-bearing values,
// and TestPackageDocComments (pkgdoc_test.go) requires a package doc
// comment.
//
// Analyzers:
//
//   - locksafe: mutexes held across blocking operations, fields accessed
//     both atomically and plainly, and goroutines calling unsynchronized
//     methods on shared state.
//   - hotpath: functions annotated //querc:hotpath (and their same-package
//     callees) must not allocate: no fmt.Sprintf/strings.Join/rand.New, no
//     un-capped append, no map or closure construction, no interface boxing
//     of scalars.
//   - leaksafe: goroutines running unbounded loops with no stop channel or
//     context, time.Tick, and time.After inside loops.
//   - errwrap: sentinel errors compared with == / != instead of errors.Is,
//     and fmt.Errorf dropping the cause by formatting an error without %w.
//
// Each analyzer honors a suppression directive (Analyzer.Allow) written as
// a //querc:<directive> comment on the offending line, the line above it,
// or in the doc comment of the enclosing function declaration — e.g.
// //querc:allow-race whitelists the deliberate Hogwild races in
// internal/doc2vec. Directives should carry a reason after the name.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CI output.
	Name string
	// Doc is the one-line description shown by querclint -h.
	Doc string
	// Allow is the //querc: directive (without the querc: prefix) that
	// suppresses this analyzer's findings at a site.
	Allow string
	// Run reports the analyzer's findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs  *directiveIndex
	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a matching allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.dirs.suppressed(p.Analyzer.Allow, pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Locksafe, Hotpath, Leaksafe, Errwrap}
}

// Check runs the given analyzers over one loaded package and returns
// the surviving (non-suppressed) diagnostics sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	dirs := buildDirectiveIndex(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			dirs:      dirs,
			diags:     &diags,
		}
		a.Run(pass)
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer))
	})
	return diags
}

// nameOf returns the identifier an expression names — x itself, or the
// selected name of x.Sel — or nil.
func nameOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// calleeFunc resolves a called expression to the function or method it
// names, or nil when the callee is a builtin, a conversion, or a function
// value.
func (p *Pass) calleeFunc(fun ast.Expr) *types.Func {
	id := nameOf(fun)
	if id == nil {
		return nil
	}
	fn, _ := p.TypesInfo.ObjectOf(id).(*types.Func)
	return fn
}

// funcObjOf resolves a called expression to its same-package *types.Func
// declaration object, or nil when the callee is a builtin, a function
// value, or declared in another package.
func (p *Pass) funcObjOf(fun ast.Expr) *types.Func {
	if fn := p.calleeFunc(fun); fn != nil && fn.Pkg() == p.Pkg {
		return fn
	}
	return nil
}

// calleePath returns "pkgpath.Name" for a called package-level function
// resolved through the type info (e.g. "fmt.Sprintf") and
// "pkgpath.Recv.Name" for a method (e.g. "sync.WaitGroup.Wait"), or ""
// when unresolvable. Qualifying methods by receiver keeps them from
// aliasing same-named package functions — time.Time.After is not
// time.After.
func (p *Pass) calleePath(fun ast.Expr) string {
	fn := p.calleeFunc(fun)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Signature().Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if recv := recvTypeName(fn); recv != "" {
		return fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	return ""
}

// declsByObj maps every function/method declaration in the package to its
// AST node, for intra-package call-graph walks.
func (p *Pass) declsByObj() map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := p.TypesInfo.ObjectOf(fd.Name).(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}
