package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Errwrap enforces the error-handling conventions:
//
//   - sentinel errors (ErrQueueFull, ErrShed, …) must be matched with
//     errors.Is, not == / != — the scheduler is free to wrap its errors
//     with context, and == silently stops matching the moment it does;
//   - fmt.Errorf calls that format an error must wrap it with %w so the
//     cause stays reachable through errors.Is/As.
//
// Suppress deliberate identity comparisons with //querc:allow-errcmp
// <reason>.
var Errwrap = &Analyzer{
	Name:  "errwrap",
	Doc:   "flags ==/!= sentinel-error comparisons and fmt.Errorf calls that drop the cause",
	Allow: "allow-errcmp",
	Run:   runErrwrap,
}

var errorType = types.Universe.Lookup("error").Type()

func runErrwrap(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkErrComparison(p, n)
			case *ast.SwitchStmt:
				checkErrSwitch(p, n)
			case *ast.CallExpr:
				checkErrorfWrap(p, n)
			}
			return true
		})
	}
}

// isErrorExpr reports whether e's static type is the error interface.
func isErrorExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Type != nil && types.Identical(tv.Type, errorType)
}

// sentinelName returns the name of the package-level error variable e
// refers to ("" when e is not a sentinel reference).
func sentinelName(p *Pass, e ast.Expr) string {
	id := nameOf(e)
	if id == nil {
		return ""
	}
	v, ok := p.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return ""
	}
	// Package-level: declared directly in the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !types.Identical(v.Type(), errorType) {
		return ""
	}
	return v.Name()
}

func checkErrComparison(p *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if !isErrorExpr(p, b.X) || !isErrorExpr(p, b.Y) {
		return
	}
	for _, side := range [2]ast.Expr{b.X, b.Y} {
		if name := sentinelName(p, side); name != "" {
			verb := "errors.Is(err, " + name + ")"
			if b.Op == token.NEQ {
				verb = "!" + verb
			}
			p.Reportf(b.Pos(), "sentinel error %s compared with %s — use %s so wrapped errors still match", name, b.Op, verb)
			return
		}
	}
}

func checkErrSwitch(p *Pass, s *ast.SwitchStmt) {
	if s.Tag == nil || !isErrorExpr(p, s.Tag) {
		return
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name := sentinelName(p, e); name != "" {
				p.Reportf(e.Pos(), "sentinel error %s matched by switch identity — use errors.Is so wrapped errors still match", name)
			}
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls whose arguments include an error
// but whose constant format string has no %w verb.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	if p.calleePath(call.Fun) != "fmt.Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := p.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if format == "" || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorExpr(p, arg) {
			p.Reportf(arg.Pos(), "fmt.Errorf formats an error without %%w — the cause becomes unreachable to errors.Is/As")
			return
		}
	}
}
