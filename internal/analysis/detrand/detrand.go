// Package detrand enforces the repo's determinism invariant: inside the
// deterministic build/query packages, every random draw must flow from a
// parameter-threaded *rand.Rand (ultimately seeded by Options.Seed) and no
// code may read the wall clock. SaveIndex output and query answers are
// byte-identical for any Options.Workers only because these packages contain
// no hidden entropy sources — this analyzer makes that a build-time fact
// instead of a comment.
//
// Three patterns are reported in the scope packages (non-test files only):
//
//   - calls to math/rand (or math/rand/v2) top-level functions that use the
//     global process-wide source, e.g. rand.Intn, rand.Float64, rand.Shuffle;
//     constructors (rand.New, rand.NewSource, ...) stay legal because they
//     are how the seed gets threaded,
//   - RNG constructors seeded from the clock — rand.New(rand.NewSource(
//     time.Now().UnixNano())) and variants,
//   - any other time.Now call. The sanctioned build-phase wall-time gauge
//     sites carry an explicit `//lint:allow detrand <reason>` escape hatch.
package detrand

import (
	"go/ast"

	"graphrep/internal/analysis/framework"
)

// ScopePackages names the deterministic packages (by package name) the
// analyzer applies to. The list is the repo's determinism boundary: the
// engine facade plus every package on the index build and query paths.
var ScopePackages = map[string]bool{
	"graphrep": true,
	"shard":    true,
	"nbindex":  true,
	"nbtree":   true,
	"vantage":  true,
	"mtree":    true,
	"metric":   true,
	"core":     true,
	"ged":      true,
	"mmapfile": true,
	// container writes and parses both file formats, whose bytes must be a
	// pure function of their contents.
	"container": true,
}

// Analyzer is the detrand check.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand state and time.Now in the deterministic " +
		"build/query packages (graphrep, shard, nbindex, nbtree, vantage, mtree, metric, core, ged, mmapfile)",
	Run: run,
}

// constructors are the math/rand top-level functions that do not touch the
// package-global source; they are allowed (they are how seeds get threaded)
// unless their arguments read the clock.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func run(pass *framework.Pass) error {
	if !ScopePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Calls already reported as part of an enclosing clock-seeded
		// constructor, so the inner time.Now (and nested constructors) do
		// not double-report.
		seen := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || seen[call] {
				return true
			}
			pkgPath, name, ok := framework.QualifiedCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch {
			case isRandPkg(pkgPath) && !constructors[name]:
				pass.Reportf(call.Pos(),
					"call to global %s.%s uses process-wide RNG state; thread a *rand.Rand seeded from Options.Seed instead",
					pkgPath, name)
			case isRandPkg(pkgPath) && argsReadClock(pass, call):
				pass.Reportf(call.Pos(),
					"RNG seeded from the clock (%s.%s with time.Now) breaks build determinism; seed from Options.Seed instead",
					pkgPath, name)
				markClockCalls(pass, call, seen)
			case pkgPath == "time" && name == "Now":
				pass.Reportf(call.Pos(),
					"time.Now in deterministic package %s; thread timings through parameters, or annotate a sanctioned wall-time gauge site with //lint:allow detrand",
					pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

// argsReadClock reports whether any argument of call contains a time.Now
// call.
func argsReadClock(pass *framework.Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if p, name, ok := framework.QualifiedCall(pass.TypesInfo, inner); ok && p == "time" && name == "Now" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// markClockCalls records every nested rand-constructor and time.Now call
// under call so the walk does not report them a second time.
func markClockCalls(pass *framework.Pass, call *ast.CallExpr, seen map[*ast.CallExpr]bool) {
	ast.Inspect(call, func(n ast.Node) bool {
		inner, ok := n.(*ast.CallExpr)
		if !ok || inner == call {
			return true
		}
		if p, name, ok := framework.QualifiedCall(pass.TypesInfo, inner); ok {
			if (isRandPkg(p) && constructors[name]) || (p == "time" && name == "Now") {
				seen[inner] = true
			}
		}
		return true
	})
}
