// Package lockguard enforces the repo's `// guarded by <mu>` annotation
// convention: a struct field carrying that comment may only be accessed
// inside functions that visibly lock the named mutex (a call to
// <mu>.Lock/RLock/TryLock/TryRLock anywhere in the function, including its
// closures) or whose name ends in "Locked" (the caller-holds-the-lock
// convention, e.g. sessionLocked).
//
// The check is deliberately flow-insensitive — it asks "does this function
// participate in the locking discipline at all", not "is the lock held at
// this instruction" — which keeps it free of false positives on the
// lock/compute/unlock-then-relock shapes real code uses, while still
// catching the dangerous case: a new call site touching guarded state with
// no locking in sight. Test files are exempt (single-goroutine tests poke
// fields directly). gVisor's checklocks is the full-strength version of this
// idea; this is the 200-line variant the invariants here need.
package lockguard

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"graphrep/internal/analysis/framework"
)

// Analyzer is the lockguard check.
var Analyzer = &framework.Analyzer{
	Name: "lockguard",
	Doc: "fields annotated `// guarded by <mu>` may only be accessed in " +
		"functions that lock <mu> or are named *Locked",
	Run: run,
}

var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// lockMethods are the mutex acquisition entry points; seeing any of them on
// a selector whose terminal field matches the guard name counts as locking.
var lockMethods = map[string]bool{
	"Lock":     true,
	"RLock":    true,
	"TryLock":  true,
	"TryRLock": true,
}

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			locked := lockedMutexes(fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection := pass.TypesInfo.Selections[sel]
				if selection == nil || selection.Kind() != types.FieldVal {
					return true
				}
				mu, guarded := guards[selection.Obj()]
				if guarded && !locked[mu] {
					pass.Reportf(sel.Sel.Pos(),
						"field %s is guarded by %s, but %s neither locks %s nor is named *Locked",
						sel.Sel.Name, mu, fn.Name.Name, mu)
				}
				return true
			})
		}
	}
	return nil
}

// collectGuards maps each annotated field object to the name of the mutex
// field guarding it.
func collectGuards(pass *framework.Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				text := field.Doc.Text() + " " + field.Comment.Text()
				m := guardRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = m[1]
					}
				}
			}
			return true
		})
	}
	return guards
}

// lockedMutexes collects the terminal field names of every mutex this
// function acquires anywhere in its body: s.mu.RLock() and mu.Lock() both
// yield "mu".
func lockedMutexes(body *ast.BlockStmt) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !lockMethods[sel.Sel.Name] {
			return true
		}
		switch recv := sel.X.(type) {
		case *ast.SelectorExpr:
			locked[recv.Sel.Name] = true
		case *ast.Ident:
			locked[recv.Name] = true
		}
		return true
	})
	return locked
}
