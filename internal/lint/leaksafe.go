package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Leaksafe enforces goroutine and timer lifecycle invariants — the drift
// controller and dispatcher drain loops are the motivating cases:
//
//   - a goroutine running an unbounded loop (`for {}` / `for cond {}` over
//     non-channel state) must wait on a stop channel, a select, or a
//     context — otherwise nothing can ever retire it;
//   - time.Tick leaks its ticker (use time.NewTicker and Stop it);
//   - time.After inside a loop allocates a timer per iteration that is not
//     collected until it fires (hoist a Timer or a Ticker out of the loop);
//   - a bare time.Sleep inside a loop that has a context.Context in scope
//     but never consults it stalls cancellation for the whole backoff — the
//     retry-loop bug the failure plane's drains exist to avoid. Select on
//     the context's Done channel and a timer instead.
//
// Suppress deliberate cases with //querc:allow-leak <reason>.
var Leaksafe = &Analyzer{
	Name:  "leaksafe",
	Doc:   "flags stop-less goroutine loops, time.Tick, time.After in loops, and context-blind sleeps in retry loops",
	Allow: "allow-leak",
	Run:   runLeaksafe,
}

func runLeaksafe(p *Pass) {
	decls := p.declsByObj()
	for _, f := range p.Files {
		var loops []ast.Node // enclosing for/range statements, innermost last
		var ctxScope []bool  // per enclosing function: a context.Context is declared in scope
		inScope := func() bool { return len(ctxScope) > 0 && ctxScope[len(ctxScope)-1] }
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				ctxScope = append(ctxScope, declaresContext(p, n))
				inspectChildren(n, walk)
				ctxScope = ctxScope[:len(ctxScope)-1]
				return false
			case *ast.FuncLit:
				// Closures capture the enclosing function's context.
				ctxScope = append(ctxScope, inScope() || declaresContext(p, n))
				inspectChildren(n, walk)
				ctxScope = ctxScope[:len(ctxScope)-1]
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n)
				inspectChildren(n, walk)
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				switch p.calleePath(n.Fun) {
				case "time.Tick":
					p.Reportf(n.Pos(), "time.Tick leaks its ticker — use time.NewTicker and defer Stop")
				case "time.After":
					if len(loops) > 0 {
						p.Reportf(n.Pos(), "time.After in a loop allocates an uncollectable timer per iteration — hoist a time.NewTimer/NewTicker out of the loop")
					}
				case "time.Sleep":
					if len(loops) > 0 && inScope() && !usesContext(p, loops[len(loops)-1]) {
						p.Reportf(n.Pos(), "time.Sleep in a loop ignores the in-scope context — select on the context's Done channel and a timer so cancellation can interrupt the backoff")
					}
				}
			case *ast.GoStmt:
				checkGoroutineStop(p, decls, n)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// declaresContext reports whether fn (a FuncDecl or FuncLit) declares a
// context.Context — a parameter or local binding — in its own scope. Nested
// function literals are skipped: their declarations are not visible here.
func declaresContext(p *Pass, fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != fn {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.TypesInfo.Defs[id]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}

// usesContext reports whether any expression under n — the loop condition,
// body, or post statement — has type context.Context: consulting Done/Err,
// passing the context to a callee, or rebinding it all count as not
// ignoring it.
func usesContext(p *Pass, n ast.Node) bool {
	for m := range ast.Preorder(n) {
		if e, ok := m.(ast.Expr); ok {
			if tv, ok := p.TypesInfo.Types[e]; ok && isContextType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// inspectChildren runs ast.Inspect with f over n's children but not over n
// itself, so f can handle n's own node type by recursing.
func inspectChildren(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool { return m == n || f(m) })
}

// checkGoroutineStop flags go statements whose body runs an infinite loop
// with no channel receive, select, or context hook inside it.
func checkGoroutineStop(p *Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := p.funcObjOf(g.Call.Fun); fn != nil {
			if decl := decls[fn]; decl != nil {
				body = decl.Body
			}
		}
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopHasStopSignal(p, loop.Body) && !loopHasReturn(loop.Body) {
			p.Reportf(g.Pos(), "goroutine runs an unbounded loop with no stop channel, select, or context — it can never be retired")
			return false
		}
		return true
	})
}

// loopHasReturn reports whether the loop body can return out of the
// goroutine directly — the counter-drained worker-pool idiom
// (`for { k := next.Add(1)-1; if k >= len(work) { return } … }`) retires
// itself without any channel.
func loopHasReturn(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// loopHasStopSignal reports whether the loop body contains any channel
// receive, send, select, or range-over-channel — the shapes a stop signal
// or work source can take.
func loopHasStopSignal(p *Pass, body *ast.BlockStmt) bool {
	for n := range ast.Preorder(body) {
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				return true
			}
		case *ast.RangeStmt:
			if tv, ok := p.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					return true
				}
			}
		case *ast.CallExpr:
			// (*sync.Cond).Wait parks the goroutine under a waiter registry
			// (the dispatcher's worker loop); it is a retirement point. A
			// WaitGroup.Wait in a loop retires nothing.
			if p.calleePath(n.Fun) == "sync.Cond.Wait" {
				return true
			}
		}
	}
	return false
}
