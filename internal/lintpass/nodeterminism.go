package lintpass

import (
	"go/ast"
	"go/types"
	"strconv"
)

// algorithmPackages are the directory suffixes of the packages whose
// output must be bit-for-bit deterministic for a fixed seed: every RR
// set, seed pick, and bound they produce is certified reproducible by
// TestPipelineEquivalence, so all randomness must flow through the
// seedable streams of internal/rng and no wall-clock value may reach an
// algorithm decision.
var algorithmPackages = []string{
	"internal/graph",
	"internal/rrset",
	"internal/im",
	"internal/core",
	"internal/sampling",
	"internal/coverage",
}

// forbiddenRandImports are the stdlib randomness sources algorithm
// packages must not touch; their global state defeats seed-stream
// determinism and their streams differ across Go releases.
var forbiddenRandImports = []string{"math/rand", "math/rand/v2"}

// clockFuncs are the time-package functions that read the wall clock.
// Timing-only uses (phase spans, build-duration histograms) are
// suppressed with //lint:allow timing.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// NoDeterminism enforces the determinism convention in algorithm
// packages: no math/rand imports, no unsuppressed wall-clock reads, and
// no iteration over maps (whose order is runtime-randomised).
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid math/rand, wall-clock reads, and map iteration in the deterministic algorithm packages",
	Run:  runNoDeterminism,
}

func isAlgorithmPackage(dir string) bool {
	for _, suffix := range algorithmPackages {
		if pathHasSuffixDir(dir, suffix) {
			return true
		}
	}
	return false
}

func runNoDeterminism(pass *Pass) {
	if !isAlgorithmPackage(pass.Dir) {
		return
	}
	pass.Directives.markChecked(ClassTiming)
	pass.Directives.markChecked(ClassMapRange)

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, bad := range forbiddenRandImports {
				if path == bad {
					pass.Reportf(imp.Pos(),
						"import of %s in a deterministic algorithm package; draw randomness from internal/rng seed streams", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := clockCall(pass, n); ok {
					pass.Report(n.Pos(), ClassTiming,
						"time.%s in a deterministic algorithm package; wall-clock values must not influence algorithm output (timing-only reads: //lint:allow timing)", name)
				}
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Report(n.Pos(), ClassMapRange,
							"map iteration in a deterministic algorithm package has runtime-randomised order; iterate a sorted key slice (order-independent uses: //lint:allow maprange)")
					}
				}
			}
			return true
		})
	}
}

// clockCall reports whether call is time.Now/Since/Until, resolved
// through the type info so aliased imports are caught too.
func clockCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !clockFuncs[sel.Sel.Name] {
		return "", false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return "", false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return "", false
	}
	return sel.Sel.Name, true
}
