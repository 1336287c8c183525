// Package goroctx defines an analyzer that keeps goroutines launched on
// build/query paths cancellable: every `go` statement in a scoped package
// must either observe context cancellation (select on ctx.Done(), poll
// ctx.Err()), be joined by its launching function through a sync.WaitGroup,
// or invoke a function that observes cancellation itself — recorded as a
// CancelAware fact so the property crosses package boundaries (launching
// internal/pool.Ranges in a goroutine is fine because Ranges polls ctx.Err
// and joins its own workers).
//
// PR 2 threaded context through build and query; a goroutine that ignores
// it outlives the request that spawned it — a leak under client disconnects
// and timeouts that only shows up under production churn.
package goroctx

import (
	"go/ast"
	"go/types"

	"graphrep/internal/analysis/framework"
)

// CancelAware marks a function that observes cancellation: it takes a
// context.Context and either references its Done/Err on some path or
// forwards it to a CancelAware callee.
type CancelAware struct{}

func (*CancelAware) AFact()         {}
func (*CancelAware) String() string { return "CancelAware" }

// ScopePackages names the packages (by package name, so fixture stubs
// qualify) whose goroutine launches are checked: the build/query paths
// where a leaked goroutine outlives a cancelled request.
var ScopePackages = map[string]bool{
	"graphrep": true,
	"shard":    true,
	"nbindex":  true,
	"vantage":  true,
	"mtree":    true,
	"metric":   true,
	"core":     true,
	"pool":     true,
	"server":   true,
	"ged":      true,
	"mmapfile": true,
}

// Analyzer flags goroutines that neither observe ctx cancellation nor are
// joined by their launcher.
var Analyzer = &framework.Analyzer{
	Name: "goroctx",
	Doc: "flag goroutines on build/query paths that ignore cancellation\n\n" +
		"Every go statement in a scoped package must select on ctx.Done(),\n" +
		"poll ctx.Err(), be joined via a sync.WaitGroup the launcher Waits\n" +
		"on, or call a CancelAware function (fact-propagated, so routing\n" +
		"work through internal/pool.Ranges passes across packages).",
	Run:       run,
	FactTypes: []framework.Fact{&CancelAware{}},
}

func run(pass *framework.Pass) error {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}
	// Derive CancelAware to a fixpoint: forwarding chains (BuildContext →
	// BuildRangeContext → pool.Ranges) resolve bottom-up.
	for iter, changed := 0, true; changed && iter < 10; iter++ {
		changed = false
		for _, fn := range fns {
			if deriveCancelAware(pass, fn) {
				changed = true
			}
		}
	}
	if !ScopePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, fn := range fns {
		checkLaunches(pass, fn)
	}
	return nil
}

// deriveCancelAware exports the fact on fn if it takes a context and
// observes it (directly or through a CancelAware callee), reporting whether
// the fact is new.
func deriveCancelAware(pass *framework.Pass, fn *ast.FuncDecl) bool {
	obj := pass.TypesInfo.Defs[fn.Name]
	if obj == nil || pass.HasObjectFact(obj, &CancelAware{}) {
		return false
	}
	ctxParams := contextParams(pass, fn)
	if len(ctxParams) == 0 {
		return false
	}
	aware := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if observesCancel(pass.TypesInfo, n) {
				aware = true
			}
		case *ast.CallExpr:
			if callee := calleeOf(pass.TypesInfo, n); callee != nil && pass.HasObjectFact(callee, &CancelAware{}) {
				for _, arg := range n.Args {
					if id, ok := arg.(*ast.Ident); ok && ctxParams[pass.TypesInfo.Uses[id]] {
						aware = true
					}
				}
			}
		}
		return true
	})
	if !aware {
		return false
	}
	pass.ExportObjectFact(obj, &CancelAware{})
	return true
}

// contextParams returns the set of fn's context.Context parameter objects.
func contextParams(pass *framework.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fn.Type.Params == nil {
		return out
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && isContext(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

func isContext(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// observesCancel reports whether sel is ctx.Done or ctx.Err on a
// context-typed receiver.
func observesCancel(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isContext(tv.Type)
}

func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// checkLaunches reports every `go` statement in fn that has no termination
// story.
func checkLaunches(pass *framework.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if launchOK(pass, fn, g.Call) {
			return true
		}
		pass.Reportf(g.Pos(), "goroutine neither observes ctx cancellation (ctx.Done/ctx.Err) nor is joined by its launcher; route it through internal/pool, select on ctx.Done(), or join it with a WaitGroup the launcher Waits on")
		return true
	})
}

func launchOK(pass *framework.Pass, fn *ast.FuncDecl, call *ast.CallExpr) bool {
	info := pass.TypesInfo
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ok := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if ok {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if observesCancel(info, n) {
					ok = true
				}
			case *ast.CallExpr:
				if callee := calleeOf(info, n); callee != nil && pass.HasObjectFact(callee, &CancelAware{}) {
					for _, arg := range n.Args {
						if tv, has := info.Types[arg]; has && isContext(tv.Type) {
							ok = true
						}
					}
				}
			}
			return true
		})
		if ok {
			return true
		}
		return wgJoined(pass, fn, lit)
	}
	callee := calleeOf(info, call)
	if callee == nil || !pass.HasObjectFact(callee, &CancelAware{}) {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isContext(tv.Type) {
			return true
		}
	}
	return false
}

// wgJoined reports whether the goroutine literal calls Done on a
// sync.WaitGroup that the launching function Waits on — the classic
// launch/join pattern (metric.NewMatrix, pool.Ranges).
func wgJoined(pass *framework.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	info := pass.TypesInfo
	doneOn := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && isWaitGroup(info, id) {
			if obj := info.Uses[id]; obj != nil {
				doneOn[obj] = true
			}
		}
		return true
	})
	if len(doneOn) == 0 {
		return false
	}
	joined := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && doneOn[obj] {
				joined = true
			}
		}
		return true
	})
	return joined
}

func isWaitGroup(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.String() == "sync.WaitGroup"
}
