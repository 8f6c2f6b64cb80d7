package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Locksafe enforces the codebase's locking invariants:
//
//  1. A sync.Mutex/RWMutex must not be held across an operation that can
//     block indefinitely — a channel send/receive, a select without
//     default, time.Sleep, or sync.WaitGroup.Wait. (sync.Cond.Wait is
//     exempt: it requires the lock by contract and releases it while
//     parked, which is the dispatcher's drain/steal idiom.)
//  2. A struct field must not be accessed both through sync/atomic and
//     plainly — mixed access is a data race even when each side looks
//     consistent locally.
//  3. A goroutine must not call a same-package pointer-receiver method
//     that uses no synchronization on state shared with its spawner —
//     either the method synchronizes internally or the race is deliberate
//     and annotated (the Hogwild trainers in internal/doc2vec).
//
// Copies of lock-bearing values are go vet's copylocks check, which CI
// runs. Suppress deliberate races with //querc:allow-race <reason>.
var Locksafe = &Analyzer{
	Name:  "locksafe",
	Doc:   "flags locks held across blocking ops, mixed atomic/plain access, and unsynchronized shared-state calls in goroutines",
	Allow: "allow-race",
	Run:   runLocksafe,
}

func runLocksafe(p *Pass) {
	ls := &locksafe{p: p, decls: p.declsByObj(), syncMemo: make(map[*types.Func]int)}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ls.checkHeldAcrossBlocking(n.Body)
				}
			case *ast.FuncLit:
				ls.checkHeldAcrossBlocking(n.Body)
			case *ast.GoStmt:
				ls.checkGoroutineCalls(n)
			}
			return true
		})
	}
	ls.checkMixedAtomicPlain()
}

type locksafe struct {
	p        *Pass
	decls    map[*types.Func]*ast.FuncDecl
	syncMemo map[*types.Func]int // 0 unknown, 1 synchronized, 2 not
}

// ---- sub-check 1: lock held across a blocking operation ----

// lockCall classifies a call as a sync.Mutex/RWMutex Lock/Unlock family
// method and returns the receiver expression's string form.
func (ls *locksafe) lockCall(call *ast.CallExpr) (recv string, unlock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch ls.p.calleePath(call.Fun) {
	case "sync.Mutex.Lock", "sync.Mutex.TryLock",
		"sync.RWMutex.Lock", "sync.RWMutex.RLock", "sync.RWMutex.TryLock", "sync.RWMutex.TryRLock":
		return types.ExprString(sel.X), false, true
	case "sync.Mutex.Unlock", "sync.RWMutex.Unlock", "sync.RWMutex.RUnlock":
		return types.ExprString(sel.X), true, true
	}
	return "", false, false
}

// checkHeldAcrossBlocking flags blocking operations lexically between a
// Lock and its matching Unlock (or, for deferred unlocks and unpaired
// locks, to the end of the function).
func (ls *locksafe) checkHeldAcrossBlocking(body *ast.BlockStmt) {
	type lockEvt struct {
		pos, end token.Pos
		recv     string
		unlock   bool
	}
	var evts []lockEvt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested closures are separate critical sections
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, isCall := n.X.(*ast.CallExpr); isCall {
				if recv, unlock, ok := ls.lockCall(call); ok {
					evts = append(evts, lockEvt{n.Pos(), n.End(), recv, unlock})
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() holds the lock for the rest of the
			// function; model it as an unlock at body end.
			if recv, unlock, ok := ls.lockCall(n.Call); ok && unlock {
				evts = append(evts, lockEvt{body.End(), body.End(), recv, true})
			}
			return false
		}
		return true
	})
	for _, lock := range evts {
		if lock.unlock {
			continue
		}
		regionEnd := body.End()
		for _, un := range evts {
			if un.unlock && un.recv == lock.recv && un.pos > lock.pos && un.pos < regionEnd {
				regionEnd = un.pos
			}
		}
		ls.flagBlockingIn(body, lock.end, regionEnd, lock.recv)
	}
}

// flagBlockingIn reports blocking operations positioned in (from, to),
// skipping nested function literals (their bodies run on other stacks or
// after unlock).
func (ls *locksafe) flagBlockingIn(body *ast.BlockStmt, from, to token.Pos, recv string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n.End() <= from || n.Pos() >= to {
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			ls.p.Reportf(n.Pos(), "%s is held across a channel send — blocking with a lock held stalls every contender", recv)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ls.p.Reportf(n.Pos(), "%s is held across a channel receive — blocking with a lock held stalls every contender", recv)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				ls.p.Reportf(n.Pos(), "%s is held across a blocking select — blocking with a lock held stalls every contender", recv)
			}
			return false // don't re-flag the comm clauses' channel ops
		case *ast.RangeStmt:
			if t, ok := ls.p.TypesInfo.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					ls.p.Reportf(n.Pos(), "%s is held across a range over a channel", recv)
				}
			}
		case *ast.CallExpr:
			switch ls.p.calleePath(n.Fun) {
			case "time.Sleep":
				ls.p.Reportf(n.Pos(), "%s is held across time.Sleep", recv)
			case "sync.WaitGroup.Wait":
				// Cond.Wait — the condition-variable contract — resolves to
				// its own receiver-qualified path and stays exempt.
				ls.p.Reportf(n.Pos(), "%s is held across sync.WaitGroup.Wait", recv)
			}
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func recvTypeName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	if named, ok := types.Unalias(derefType(recv.Type())).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ---- sub-check 2: fields accessed both atomically and plainly ----

func (ls *locksafe) checkMixedAtomicPlain() {
	atomicFields := make(map[*types.Var]token.Pos) // field -> first atomic access
	atomicArgPos := make(map[token.Pos]bool)       // positions of &x.f args inside atomic calls
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := ls.p.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		return v
	}
	for _, f := range ls.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !strings.HasPrefix(ls.p.calleePath(call.Fun), "sync/atomic.") {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v := fieldOf(un.X); v != nil {
					if _, seen := atomicFields[v]; !seen {
						atomicFields[v] = un.X.Pos()
					}
					atomicArgPos[un.X.Pos()] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, f := range ls.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if atomicArgPos[sel.Pos()] {
				return true
			}
			v := fieldOf(sel)
			if v == nil {
				return true
			}
			if first, mixed := atomicFields[v]; mixed {
				ls.p.Reportf(sel.Pos(), "field %s is accessed atomically at %s but plainly here — mixed access is a data race",
					v.Name(), ls.p.Fset.Position(first))
			}
			return true
		})
	}
}

// ---- sub-check 3: goroutines calling unsynchronized shared methods ----

// synchronized reports whether fn's body (transitively through same-package
// callees with known bodies) contains any synchronization: a sync or
// sync/atomic call, a channel operation, or a select. Functions without a
// same-package body (cross-package, interface methods) are assumed
// synchronized so only locally provable races get flagged.
func (ls *locksafe) synchronized(fn *types.Func) bool {
	switch ls.syncMemo[fn] {
	case 1:
		return true
	case 2:
		return false
	}
	ls.syncMemo[fn] = 2 // cycle guard: assume not until proven
	decl := ls.decls[fn]
	if decl == nil || decl.Body == nil {
		ls.syncMemo[fn] = 1
		return true
	}
	for n := range ast.Preorder(decl.Body) {
		if ls.syncEvidence(fn, n) {
			ls.syncMemo[fn] = 1
			return true
		}
	}
	return false
}

// syncEvidence reports whether node n of fn's body synchronizes.
func (ls *locksafe) syncEvidence(fn *types.Func, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt, *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.CallExpr:
		if path := ls.p.calleePath(n.Fun); strings.HasPrefix(path, "sync.") || strings.HasPrefix(path, "sync/atomic.") {
			return true
		}
		// Same-package callees with bodies propagate their evidence;
		// bodiless callees deliberately don't (almost every function
		// calls something cross-package).
		callee := ls.p.funcObjOf(n.Fun)
		return callee != nil && callee != fn && ls.decls[callee] != nil && ls.synchronized(callee)
	}
	return false
}

func (ls *locksafe) checkGoroutineCalls(g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		ls.checkClosureSharedCalls(fun)
	default:
		// go x.M(...): flag when M is a same-package pointer-receiver
		// method with no synchronization of its own.
		if fn := ls.p.funcObjOf(g.Call.Fun); fn != nil && isPointerReceiverMethod(fn) && !ls.synchronized(fn) {
			ls.p.Reportf(g.Pos(), "goroutine calls %s, which uses no synchronization, on shared state — synchronize it or annotate the deliberate race with //querc:allow-race", fn.Name())
		}
	}
}

// checkClosureSharedCalls flags same-package pointer-receiver method calls
// on captured variables inside a go-launched closure when the callee uses
// no synchronization (the closure's own channel/lock use does not protect
// the callee's state).
func (ls *locksafe) checkClosureSharedCalls(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := ls.p.funcObjOf(call.Fun)
		if fn == nil || !isPointerReceiverMethod(fn) {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil {
			return true
		}
		obj := ls.p.TypesInfo.ObjectOf(root)
		if obj == nil || obj.Pos() == token.NoPos {
			return true
		}
		// Captured: declared outside the closure.
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		if ls.indexSharded(lit, sel.X) {
			return true
		}
		if ls.synchronized(fn) {
			return true
		}
		ls.p.Reportf(call.Pos(), "goroutine calls %s, which uses no synchronization, on captured %s — synchronize it or annotate the deliberate race with //querc:allow-race", fn.Name(), root.Name)
		return true
	})
}

// indexSharded reports whether the receiver chain indexes a collection
// with a goroutine-local value — trainers[w].accumulate(...) where w is the
// closure's own parameter. Each goroutine then owns a disjoint element: the
// standard worker-shard pattern, not a shared-state race.
func (ls *locksafe) indexSharded(lit *ast.FuncLit, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			local := false
			ast.Inspect(x.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := ls.p.TypesInfo.ObjectOf(id); obj != nil &&
						obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
						local = true
					}
				}
				return true
			})
			if local {
				return true
			}
			e = x.X
		default:
			return false
		}
	}
}

func isPointerReceiverMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	_, isPtr := recv.Type().Underlying().(*types.Pointer)
	return isPtr
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
