package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AcquireRelease enforces the Registry pin protocol from PR 4: every
// Registry.Acquire call returns a release func that must run on all
// paths out of the caller — error returns and
// panics included — because a leaked pin holds Registry.Replace's drain
// hostage until the drain deadline force-closes the displaced server
// (failing that server's remaining rows with ErrClosed).
//
// The only form that survives every path is the deferred one:
//
//	s, release, ok := reg.Acquire(name)
//	if !ok { ... }
//	defer release()
//
// Reported:
//   - the release result assigned to the blank identifier,
//   - a release that is never called (or otherwise used),
//   - a direct (non-deferred) release() with a return statement between
//     the Acquire and the release — the early return skips the call.
//
// Passing release to another function is accepted: ownership moved, and
// the callee is the one on the hook.
var AcquireRelease = &Analyzer{
	Name: "acquirerelease",
	Doc:  "Registry.Acquire release funcs must run on all paths (use defer)",
	Run:  runAcquireRelease,
}

func runAcquireRelease(pass *Pass) error {
	info := pass.TypesInfo
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		idx, ok := acquireReleaseIndex(info, call)
		if !ok || idx >= len(assign.Lhs) {
			return true
		}
		lhs := assign.Lhs[idx]
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(lhs.Pos(), "release func of %s is discarded; a leaked pin stalls Registry.Replace until the drain deadline force-closes the old server", callName(call))
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id] // re-assignment to an existing variable
		}
		if obj == nil {
			return true
		}
		body := enclosingFuncBody(stack)
		if body == nil {
			return true
		}
		checkReleaseUses(pass, body, call, id, obj)
		return true
	})
	return nil
}

// acquireReleaseIndex reports whether call is Registry.Acquire, and at
// which result index the release func sits. The match is semantic, not
// path-bound: a method named Acquire on a type named Registry whose
// results include a niladic func() — so test fixtures and future registries are covered
// alongside serve.Registry.
func acquireReleaseIndex(info *types.Info, call *ast.CallExpr) (int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	if sel.Sel.Name != "Acquire" {
		return 0, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	if namedTypeName(sig.Recv().Type()) != "Registry" {
		return 0, false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if s, ok := sig.Results().At(i).Type().Underlying().(*types.Signature); ok &&
			s.Params().Len() == 0 && s.Results().Len() == 0 {
			return i, true
		}
	}
	return 0, false
}

// checkReleaseUses inspects every use of the release variable inside
// the acquiring function and reports the leak patterns.
func checkReleaseUses(pass *Pass, body *ast.BlockStmt, acquire *ast.CallExpr, decl *ast.Ident, obj types.Object) {
	var (
		deferred    bool // release() appears under a defer
		escapes     bool // release passed as a value (ownership moved)
		reassigned  bool // variable overwritten later (tracked elsewhere)
		firstDirect ast.Node
	)
	walk := func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == decl || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		switch parent := parentNode(stack).(type) {
		case *ast.CallExpr:
			if ast.Unparen(parent.Fun) == ast.Expr(id) {
				// release() — deferred or direct?
				if underDefer(stack) {
					deferred = true
				} else if firstDirect == nil {
					firstDirect = parent
				}
			} else {
				escapes = true // passed as an argument
			}
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == ast.Expr(id) {
					reassigned = true
				}
			}
			for i, rhs := range parent.Rhs {
				if rhs != ast.Expr(id) {
					continue
				}
				// `_ = release` silences the compiler's unused-var
				// check without calling release: still a leak, not an
				// escape.
				if len(parent.Lhs) == len(parent.Rhs) {
					if blank, ok := parent.Lhs[i].(*ast.Ident); ok && blank.Name == "_" {
						continue
					}
				}
				escapes = true
			}
		case *ast.DeferStmt:
			// `defer release` without parens is not valid Go; defer
			// release() hits the CallExpr case via the call's stack.
			deferred = true
		default:
			// Any other appearance (composite literal, return value,
			// closure capture read) moves ownership out of our sight.
			escapes = true
		}
		return true
	}
	walkWithStack(body, walk)

	switch {
	case deferred, escapes, reassigned:
		return
	case firstDirect == nil:
		pass.Reportf(decl.Pos(), "release func of %s is never called; the leaked pin stalls Registry.Replace until the drain deadline force-closes the old server", callName(acquire))
	default:
		if ret := returnBetween(body, acquire.End(), firstDirect.Pos()); ret != nil {
			pass.Reportf(firstDirect.Pos(), "release func of %s is only called after a possible return at line %d; defer it so every path (and panic) releases the pin", callName(acquire), pass.Fset.Position(ret.Pos()).Line)
		}
	}
}

// parentNode returns the innermost ancestor on the stack.
func parentNode(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// underDefer reports whether any ancestor is a defer statement.
func underDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// returnBetween finds a return statement positioned strictly between lo
// and hi inside body, i.e. a path that can exit the function after the
// acquire but before the direct release call.
func returnBetween(body *ast.BlockStmt, lo, hi token.Pos) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false // its returns exit the literal, not this func
		case *ast.ReturnStmt:
			if n.Pos() > lo && n.End() < hi {
				found = n
			}
		}
		return true
	})
	return found
}

// walkWithStack is inspectWithStack over a single subtree.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// callName renders the call's selector for diagnostics (reg.Acquire).
func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return x.Name + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return "Acquire"
}
