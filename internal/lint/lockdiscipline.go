package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"wasched/internal/lint/analysis"
)

// Lockdiscipline flags blocking operations — file I/O, outbound HTTP,
// channel operations, time.Sleep, WaitGroup waits — performed while a
// sync.Mutex or sync.RWMutex is provably held. Holding a fabric lock
// across I/O is how a slow disk or a half-open socket freezes every
// worker behind one mutex; this analyzer catches the shape.
//
// "Provably held" is a must-analysis over the function's control-flow
// graph: a lock locked on every path into a statement and not yet
// unlocked. Deferred unlocks do not release the lock for the remainder of
// the body (that is precisely the pattern that holds a lock across I/O).
// Calls into package-local helpers inherit the helper's blocking effect
// through the call-graph summaries; calls through interfaces or into
// other packages are not considered blocking — the analyzer prefers
// missed findings over noise. Code launched with `go` inside the critical
// section runs outside it and is skipped.
var Lockdiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "no blocking call (I/O, HTTP, channel op, sleep) while a mutex is held",
	Run:  runLockdiscipline,
}

// lockFact is the must-held lock set: canonical receiver expression →
// position of the acquiring Lock call.
type lockFact map[string]token.Pos

func runLockdiscipline(pass *analysis.Pass) error {
	cg := analysis.NewCallGraph(pass)
	// blockers maps package functions to the blocking primitive they
	// (transitively) reach, so s.append → journal.Sync chains surface at
	// the call site inside the critical section.
	blockers := cg.Propagate(func(node *analysis.FuncNode) *analysis.Effect {
		var eff *analysis.Effect
		analysis.InspectSync(node.Decl.Body, func(n ast.Node) bool {
			if eff != nil {
				return false
			}
			if desc, pos := blockingOp(pass.TypesInfo, n); desc != "" {
				eff = &analysis.Effect{Cause: desc, Pos: pos}
				return false
			}
			return true
		})
		return eff
	})

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			checkLockBody(pass, blockers, body)
			return true
		})
	}
	return nil
}

func checkLockBody(pass *analysis.Pass, blockers map[*types.Func]*analysis.Effect, body *ast.BlockStmt) {
	g := analysis.NewCFG(body)
	transfer := func(f lockFact, n ast.Node) lockFact {
		return lockTransfer(pass.TypesInfo, f, n)
	}
	in, seen := analysis.Forward(g, lockFact{}, transfer, intersectLocks, equalLocks)

	for i, blk := range g.Blocks {
		if !seen[i] {
			continue
		}
		fact := in[i]
		for _, node := range blk.Nodes {
			if len(fact) > 0 && !g.SelectComm[node] {
				reportBlocking(pass, blockers, node, fact)
			}
			fact = transfer(fact, node)
		}
	}
}

// lockTransfer updates the held-lock set for one node: Lock/RLock add the
// receiver, Unlock/RUnlock remove it. Deferred statements are skipped (a
// deferred Unlock releases at return, not here) and `go` statements run
// on another goroutine.
func lockTransfer(info *types.Info, f lockFact, n ast.Node) lockFact {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return f
	}
	out := f
	analysis.InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := mutexMethod(info, call)
		if recv == "" {
			return true
		}
		switch method {
		case "Lock", "RLock":
			out = copyLocks(out)
			out[recv] = call.Pos()
		case "Unlock", "RUnlock":
			out = copyLocks(out)
			delete(out, recv)
		}
		return true
	})
	return out
}

// mutexMethod matches m.Lock()/m.Unlock()/m.RLock()/m.RUnlock() where m
// is a sync.Mutex or sync.RWMutex (possibly behind a pointer), returning
// the canonical receiver text and the method name.
func mutexMethod(info *types.Info, call *ast.CallExpr) (recv, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// reportBlocking reports every blocking operation in node while fact is
// non-empty: direct primitives and calls into package-local helpers whose
// summary blocks.
func reportBlocking(pass *analysis.Pass, blockers map[*types.Func]*analysis.Effect, node ast.Node, fact lockFact) {
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	held := heldLockText(fact)
	analysis.InspectShallow(node, func(m ast.Node) bool {
		if desc, pos := blockingOp(pass.TypesInfo, m); desc != "" {
			pass.Reportf(pos, "%s while %s is held", desc, held)
			return true
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if eff, ok := blockers[callee]; ok {
			chain := callee.Name()
			if len(eff.Chain) > 0 {
				chain += " → " + strings.Join(eff.Chain, " → ")
			}
			pass.Reportf(call.Pos(), "call to %s (which reaches %s) while %s is held", chain, eff.Cause, held)
		}
		return true
	})
}

func heldLockText(fact lockFact) string {
	names := make([]string, 0, len(fact))
	for name := range fact {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprintf("%q", names[0])
}

// blockingOp classifies a node as a directly blocking primitive: channel
// operations, default-less selects, sleeps, file and network I/O.
// Interface method calls (an io.Writer, a store) are deliberately not
// classified — the callee is unknown, and flagging every logf under a
// lock would drown the real findings.
func blockingOp(info *types.Info, n ast.Node) (string, token.Pos) {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", n.Pos()
		}
	case *ast.SendStmt:
		return "channel send", n.Pos()
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", token.NoPos // has default: non-blocking poll
			}
		}
		return "blocking select", n.Pos()
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", n.Pos()
			}
		}
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return "", token.NoPos
		}
		if desc := blockingCallee(fn); desc != "" {
			return "blocking call " + desc, n.Pos()
		}
	}
	return "", token.NoPos
}

// blockingCallee matches the std-library blocking surface the fabric
// actually uses: file I/O, process waits, HTTP, dialing, sleeping.
func blockingCallee(fn *types.Func) string {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	switch pkg {
	case "time":
		if recv == "" && name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		if recv == "File" {
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close", "Seek", "Truncate", "ReadDir":
				return "(*os.File)." + name
			}
		}
		if recv == "" {
			switch name {
			case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile", "Rename", "Remove", "RemoveAll",
				"Mkdir", "MkdirAll", "MkdirTemp", "ReadDir", "Stat", "Lstat", "Truncate", "Chtimes", "Symlink", "Link":
				return "os." + name
			}
		}
	case "net/http":
		if recv == "Client" {
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head", "CloseIdleConnections":
				return "(*http.Client)." + name
			}
		}
		if recv == "" {
			switch name {
			case "Get", "Post", "PostForm", "Head":
				return "http." + name
			}
		}
	case "net":
		if recv == "" {
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket":
				return "net." + name
			}
		}
	case "os/exec":
		if recv == "Cmd" {
			switch name {
			case "Run", "Output", "CombinedOutput", "Wait", "Start":
				return "(*exec.Cmd)." + name
			}
		}
	case "sync":
		if recv == "WaitGroup" && name == "Wait" {
			return "(*sync.WaitGroup).Wait"
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "ReadAll":
			return "io." + name
		}
	}
	return ""
}

func copyLocks(f lockFact) lockFact {
	out := make(lockFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	return out
}

func intersectLocks(a, b lockFact) lockFact {
	out := lockFact{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func equalLocks(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
