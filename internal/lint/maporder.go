package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"wasched/internal/lint/analysis"
)

// Maporder flags `range` loops over maps whose iteration order can leak
// into observable behaviour — the bug class behind the FIFO-order flakes
// fixed in PR 2. Two patterns are reported:
//
//   - appending to a slice declared outside the loop, unless that slice is
//     later passed to a sort (the collect-keys-then-sort idiom is the fix,
//     and is recognized);
//   - calling an order-sensitive sink inside the loop body: scheduling and
//     queue mutations (Submit, Reserve, Enqueue, ...), journal/cache
//     writes (record, append-style methods, Write, Encode), validator
//     reporting (violatef) and direct output (fmt.Print*/Fprint*), plus
//     channel sends. For these there is no after-the-fact sort — iterate
//     over sorted keys instead.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose nondeterministic order reaches scheduling, journals or output",
	Run:  runMaporder,
}

// methodSinks are callee names (methods or functions, any package) whose
// invocation order is observable.
var methodSinks = map[string]bool{
	"Submit":      true,
	"Reserve":     true,
	"Enqueue":     true,
	"Push":        true,
	"Schedule":    true,
	"record":      true,
	"violatef":    true,
	"Write":       true,
	"WriteString": true,
	"Encode":      true,
}

func runMaporder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		parents := analysis.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, parents, rs)
			return true
		})
	}
	return nil
}

func checkMapRangeBody(pass *analysis.Pass, parents map[ast.Node]ast.Node, rs *ast.RangeStmt) {
	enclosing := analysis.EnclosingFunc(parents, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(stmt.Pos(),
				"channel send inside iteration over map %s: receive order is nondeterministic; iterate over sorted keys",
				types.ExprString(rs.X))
		case *ast.AssignStmt:
			for _, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.TypesInfo, call) || len(call.Args) == 0 {
					continue
				}
				target := appendTarget(pass.TypesInfo, call.Args[0])
				if target == nil {
					continue
				}
				// A slice created inside the loop body is reset every
				// iteration and cannot accumulate map order.
				if target.Pos() >= rs.Body.Pos() && target.Pos() <= rs.Body.End() {
					continue
				}
				if sortedLater(pass.TypesInfo, enclosing, target) {
					continue
				}
				pass.Reportf(stmt.Pos(),
					"%s is appended to in iteration order of map %s; sort it before use or iterate over sorted keys",
					target.Name(), types.ExprString(rs.X))
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, stmt)
			if fn == nil {
				return true
			}
			name := fn.Name()
			sink := methodSinks[name]
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				sink = true
			}
			if sink {
				pass.Reportf(stmt.Pos(),
					"call to %s inside iteration over map %s: the order of its effects is nondeterministic; iterate over sorted keys",
					name, types.ExprString(rs.X))
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget resolves the object of the slice being appended to, when it
// is a plain identifier (the overwhelmingly common shape).
func appendTarget(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// sortedLater reports whether the enclosing function passes obj to a
// sort.* or slices.Sort* call anywhere — the canonical way to erase map
// iteration order before the slice is used.
func sortedLater(info *types.Info, enclosing ast.Node, obj types.Object) bool {
	body := analysis.FuncBody(enclosing)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if unary, ok := arg.(*ast.UnaryExpr); ok {
				arg = unary.X
			}
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
