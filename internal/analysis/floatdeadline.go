package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatDeadline enforces epsilon-safe virtual-time arithmetic. Two past
// bugs motivate it. First, the batcher's SLA flush timer compared a
// recomputed slack against the service estimate at the exact fire
// boundary; floating-point rounding landed the slack an ulp low and the
// flush shed a sample that was still viable (fixed by firing 2% early).
// Second, the closed-loop driver computed the number of steps in a
// horizon as int(horizon/interval); float drift made the ratio
// 99.999999…, truncation lost the final batch, and the conservation
// audit reported missing samples (fixed by adding +1e-9 before
// truncating). The analyzer flags the two mechanically recognisable
// shapes of that bug class:
//
//  1. exact == / != between float64 values where either side is
//     virtual-time-ish (deadline, arrival, horizon, now, …At);
//  2. truncating integer conversions int(a/b) of a virtual-time ratio
//     with no epsilon addend.
//
// Deliberate exact comparisons (the event heap's timestamp tie-break)
// carry //e3:exactfloat with a reason.
var FloatDeadline = &Analyzer{
	Name: "floatdeadline",
	Doc: "flag exact float64 equality on virtual-time/deadline values and " +
		"epsilon-free truncation of virtual-time ratios. " +
		"Escape hatch: //e3:exactfloat <reason>.",
	Applies: scope(
		"e3/internal/sim",
		"e3/internal/simnet",
		"e3/internal/scheduler",
		"e3/internal/serving",
		"e3/internal/metrics",
		"e3/internal/audit",
		"e3/internal/exec",
		"e3/internal/replan",
		"e3/internal/store",
	),
	Run: runFloatDeadline,
}

// timeishName reports whether a bare identifier-ish name denotes a
// virtual-time quantity. The vocabulary is the repo's own: Sample.Deadline
// and .Arrival, engine Now()/now, event .at, batcher flushAt/fireAt,
// horizon and SLO parameters.
func timeishName(name string) bool {
	lower := strings.ToLower(name)
	switch lower {
	case "at", "now", "t":
		return true
	}
	for _, frag := range []string{"deadline", "arrival", "horizon", "slo", "time"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	// CamelCase suffix At (flushAt, fireAt, completeAt) — but not words that
	// merely end in the letters "at" (format, float).
	return strings.HasSuffix(name, "At")
}

// timeish reports whether the expression reads like a virtual-time value:
// an identifier, field, or call whose name is time-ish, or any arithmetic
// combination containing one.
func timeish(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return timeishName(e.Name)
	case *ast.SelectorExpr:
		return timeishName(e.Sel.Name)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return timeishName(sel.Sel.Name)
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return timeishName(id.Name)
		}
	case *ast.ParenExpr:
		return timeish(e.X)
	case *ast.UnaryExpr:
		return timeish(e.X)
	case *ast.BinaryExpr:
		return timeish(e.X) || timeish(e.Y)
	case *ast.IndexExpr:
		return timeish(e.X)
	}
	return false
}

func runFloatDeadline(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkExactEquality(pass, n)
			case *ast.CallExpr:
				checkTruncatedRatio(pass, n)
			}
			return true
		})
	}
}

// checkExactEquality flags == / != between float64 operands when either
// side is a virtual-time expression.
func checkExactEquality(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if !pass.IsFloat64(b.X) || !pass.IsFloat64(b.Y) {
		return
	}
	if !timeish(b.X) && !timeish(b.Y) {
		return
	}
	if pass.Exempted(b.Pos(), "exactfloat") {
		return
	}
	pass.Reportf(b.OpPos,
		"exact %s on virtual-time float64 values; one ulp of drift flips this — compare with an epsilon tolerance (or annotate //e3:exactfloat <reason> if exactness is the point)",
		b.Op)
}

// checkTruncatedRatio flags integer conversions whose operand is a bare
// division of virtual-time float64s: int(horizon/interval) drops the last
// step when rounding lands the ratio just under the integer. An epsilon
// addend (int(horizon/interval + 1e-9)) or math.Round/Floor/Ceil wrapper
// changes the top-level expression shape and passes.
func checkTruncatedRatio(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	if !isIntegerType(tv.Type) {
		return
	}
	arg := unparen(call.Args[0])
	div, ok := arg.(*ast.BinaryExpr)
	if !ok || div.Op != token.QUO {
		return
	}
	if !pass.IsFloat64(div.X) || !pass.IsFloat64(div.Y) {
		return
	}
	if !timeish(div.X) && !timeish(div.Y) {
		return
	}
	if pass.Exempted(call.Pos(), "exactfloat") {
		return
	}
	pass.Reportf(call.Pos(),
		"truncating integer conversion of a virtual-time ratio can lose the final step to float rounding; add an epsilon before truncating (e.g. + 1e-9) or round explicitly")
}

func isIntegerType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
