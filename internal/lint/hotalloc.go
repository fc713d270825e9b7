package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"wasched/internal/lint/analysis"
)

// HotpathDirective marks a function as replay-hot:
//
//	//waschedlint:hotpath
//
// in the function's doc comment. Hotness propagates to every
// package-local function it (transitively) calls.
const HotpathDirective = "waschedlint:hotpath"

// Hotalloc makes PR 7's zero-steady-state-allocation invariant a static
// gate. Functions marked //waschedlint:hotpath (the des event loop, the
// sched.Driver round and the session calls under it, the controller's
// round, the pfs recompute, the bb round emulation)
// and everything they reach through package-local calls must not contain
// allocation-introducing constructs: make, new, slice/map literals,
// &T{}, closures, string concatenation, []byte/string conversions,
// interface boxing at call sites, `go` statements, or append to a slice
// that is neither a retained field nor derived from a parameter (the
// `buf = append(buf[:0], …)` reuse idiom is fine; growing a fresh local
// is not).
//
// Blocks that terminate in panic/os.Exit are skipped: assertion failures
// may format messages. The dynamic complement is schedcheck's
// TestReplayAllocationShape — hotalloc catches the regression at review
// time, the allocation test catches whatever escapes it.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "no allocation-introducing constructs in //waschedlint:hotpath functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *analysis.Pass) error {
	cg := analysis.NewCallGraph(pass)
	var roots []*types.Func
	for _, node := range cg.Order {
		if hasHotpathDirective(node.Decl) {
			roots = append(roots, node.Fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	hot := cg.Reachable(roots)
	for _, node := range cg.Order {
		chain, isHot := hot[node.Fn]
		if !isHot {
			continue
		}
		where := node.Fn.Name()
		if len(chain) > 0 {
			where += " (hot via " + strings.Join(chain, " → ") + ")"
		}
		checkHotFunc(pass, node.Decl, where)
	}
	return nil
}

func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotpathDirective || strings.HasPrefix(text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl, where string) {
	derived := derivedSlices(pass.TypesInfo, fd)
	g := analysis.NewCFG(fd.Body)
	for _, blk := range g.Blocks {
		if blk.Panics {
			// Assertion/exit paths may format their last words.
			continue
		}
		for _, node := range blk.Nodes {
			checkHotNode(pass, derived, node, where)
		}
	}
}

func checkHotNode(pass *analysis.Pass, derived map[types.Object]bool, node ast.Node, where string) {
	info := pass.TypesInfo
	analysis.InspectShallow(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates in hot path: %s", where)
			return false
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates (closure) in hot path: %s", where)
			return false
		case *ast.CompositeLit:
			if tv, ok := info.Types[ast.Expr(n)]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal allocates in hot path: %s", where)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal allocates in hot path: %s", where)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in hot path: %s", where)
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info, n.X) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot path: %s", where)
			}
		case *ast.CallExpr:
			checkHotCall(pass, derived, n, where)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, derived map[types.Object]bool, call *ast.CallExpr, where string) {
	info := pass.TypesInfo
	// Conversions: []byte(s) and string(b) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch dst.(type) {
		case *types.Slice:
			if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				pass.Reportf(call.Pos(), "[]byte(string) conversion allocates in hot path: %s", where)
			}
		case *types.Basic:
			if dst.(*types.Basic).Info()&types.IsString != 0 {
				if _, ok := src.Underlying().(*types.Slice); ok {
					pass.Reportf(call.Pos(), "string([]byte) conversion allocates in hot path: %s", where)
				}
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "make allocates in hot path: %s", where)
			case "new":
				pass.Reportf(call.Pos(), "new allocates in hot path: %s", where)
			case "append":
				if len(call.Args) > 0 && !retainedSlice(info, derived, call.Args[0]) {
					pass.Reportf(call.Pos(), "append to a fresh local slice grows in hot path (reuse a retained buffer): %s", where)
				}
			}
			return
		}
	}
	// Interface boxing: a concrete argument passed where an interface is
	// expected escapes to the heap. Pointer-shaped values (pointers,
	// channels, maps, funcs) fit the iface data word directly and do not
	// allocate, so they pass.
	sig := analysis.Signature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxed into interface allocates in hot path: %s", where)
	}
}

// pointerShaped reports whether values of t occupy exactly one pointer
// word, so converting one to an interface fills the data word without a
// heap allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// retainedSlice reports whether the append destination is backed by
// retained storage: rooted in a field selector, a parameter/receiver, or
// a local derived from one (buf := s.buf[:0] and friends).
func retainedSlice(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	root := sliceRoot(e)
	switch r := root.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		obj := info.Uses[r]
		if obj == nil {
			obj = info.Defs[r]
		}
		if obj == nil {
			return false
		}
		return derived[obj]
	}
	return false
}

// sliceRoot strips the value-preserving wrappers off an append
// destination: parens, slicing, indexing, and the append idiom itself
// (append(x, …) is rooted where x is).
func sliceRoot(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// derivedSlices computes the objects bound to retained storage: the
// receiver, parameters and named results themselves, plus locals
// transitively assigned from a field selector, a parameter, or another
// derived local (through slicing/append).
func derivedSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	derived := map[types.Object]bool{}
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
	seed(fd.Type.Results)
	mark := func(lhs, rhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || derived[obj] {
			return false
		}
		switch r := sliceRoot(rhs).(type) {
		case *ast.SelectorExpr:
			derived[obj] = true
			return true
		case *ast.Ident:
			ro := info.Uses[r]
			if ro == nil {
				ro = info.Defs[r]
			}
			if ro != nil && derived[ro] {
				derived[obj] = true
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i := range a.Lhs {
				if mark(a.Lhs[i], a.Rhs[i]) {
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
