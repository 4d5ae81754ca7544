package analysis

import (
	"go/ast"
)

// wallClockFuncs are the package time entry points that read or schedule
// against the machine's clock. Pure conversions (time.Duration arithmetic,
// time.Unix) are not listed: the invariant is about *which clock* drives
// the simulation, not about the time package as a whole.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// VirtualTime enforces the simulator's foundational rule: simulation-domain
// packages run on virtual float64 seconds, never the wall clock. A single
// time.Now inside the event loop silently couples results to host speed and
// destroys run-to-run reproducibility — the property every PR 1 conservation
// audit depends on. Legitimate wall-clock reads at the system's edges (run-
// duration logging, real-compute measurement like experiments' Figure 20
// microbenchmark) carry //e3:wallclock with a reason.
//
// v2: function bodies are read from the shared facts layer; only
// package-level initializers still need a residual walk.
var VirtualTime = &Analyzer{
	Name: "virtualtime",
	Doc: "forbid wall-clock time (time.Now, time.Since, wall timers) in " +
		"simulation-domain packages; virtual float64 timestamps only. " +
		"Escape hatch: //e3:wallclock <reason>.",
	Applies: scope(
		"e3/internal/sim",
		"e3/internal/simnet",
		"e3/internal/scheduler",
		"e3/internal/serving",
		"e3/internal/metrics",
		"e3/internal/audit",
		"e3/internal/exec",
		"e3/internal/trace",
		"e3/internal/profile",
		"e3/internal/workload",
		"e3/internal/experiments",
		"e3/internal/telemetry",
		"e3/internal/replan",
		"e3/internal/slo",
		"e3/internal/flame",
		"e3/internal/store",
	),
	Run: runVirtualTime,
}

func runVirtualTime(pass *Pass) {
	reportUse := func(use Use) {
		if pass.Exempted(use.Pos, "wallclock") {
			return
		}
		pass.Reportf(use.Pos,
			"%s reads the wall clock inside a simulation-domain package; use the sim engine's virtual time (or annotate //e3:wallclock <reason> for a real edge)",
			use.What)
	}
	for _, ff := range pass.Facts.ByPackage(pass.ImportPath) {
		for _, use := range ff.WallClock {
			reportUse(use)
		}
	}
	// Package-level var initializers sit outside any function body and
	// therefore outside the facts layer.
	inspectOutsideBodies(pass.Files, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgPath, fn, ok := pass.PkgFuncCall(call); ok && pkgPath == "time" && wallClockFuncs[fn] {
			reportUse(Use{Pos: call.Pos(), What: "time." + fn})
		}
		return true
	})
}

// inspectOutsideBodies walks the parts of each file that collectFuncFacts
// does not: package-level declarations, function signatures and receivers
// — everything except function bodies.
func inspectOutsideBodies(files []*ast.File, fn func(ast.Node) bool) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, fn)
				}
				ast.Inspect(d.Type, fn)
			default:
				ast.Inspect(decl, fn)
			}
		}
	}
}
