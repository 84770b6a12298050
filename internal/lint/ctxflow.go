package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow keeps request lifecycles intact through the serving stack. A
// function that receives a context.Context owns part of a request's
// cancellation chain: deadlines, client disconnects, and hot-swap
// drains all flow through it. Inside such a function:
//
//   - calling context.Background() or context.TODO() severs the chain —
//     downstream work outlives the request, queued rows stop being
//     droppable, and the passes a Registry.Replace waits for serve
//     callers that are long gone; reported.
//   - passing context.Background()/TODO() as the context argument of a
//     callee (a Server.Call-style API whose first parameter is a
//     Context) while holding a perfectly good ctx is the same bug one
//     call later; reported.
//
// Functions without a Context parameter are exempt: entry points
// (main, tests, Predict-style convenience wrappers) legitimately mint
// root contexts.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions receiving a ctx must not mint context.Background/TODO or drop the ctx when calling ctx-taking APIs",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				// Reached only when no enclosing ctx-taking function
				// claimed this subtree (their walk stops descent), so
				// the literal is checked iff it receives its own ctx.
				if hasCtxParam(info, fn.Type) {
					checkCtxBody(pass, fn.Body)
					return false
				}
				return true
			default:
				return true
			}
			if body == nil || !hasCtxParam(info, ftype) {
				return true
			}
			checkCtxBody(pass, body)
			return false // checkCtxBody walked the subtree
		})
	}
	return nil
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxBody reports Background/TODO calls inside a ctx-holding
// function body. A call that feeds a ctx-taking API is reported as a
// dropped ctx; a bare minting is reported as severing the chain.
func checkCtxBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	walkWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isPkgFunc(info, call, "context", "Background", "TODO") {
			return true
		}
		if outer, ok := parentNode(stack).(*ast.CallExpr); ok {
			if fn := calleeFunc(info, outer); fn != nil {
				pass.Reportf(call.Pos(), "context.%s passed to %s drops the caller's ctx: deadlines and cancellation stop propagating — pass the ctx parameter (or a context derived from it)",
					calleeFunc(info, call).Name(), fn.Name())
				return true
			}
		}
		pass.Reportf(call.Pos(), "context.%s inside a function that already receives a ctx severs the cancellation chain — derive from the ctx parameter instead",
			calleeFunc(info, call).Name())
		return true
	})
}

// walkWithStack walks root depth-first, calling fn with each node and
// the stack of its ancestors (outermost first, excluding the node
// itself). Returning false skips the subtree.
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

// parentNode returns the innermost ancestor on the stack.
func parentNode(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}
