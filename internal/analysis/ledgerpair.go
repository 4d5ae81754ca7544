package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LedgerPair enforces exactly-once lifecycle accounting. The audit
// ledger's conservation proof (every sample terminates exactly once, and
// the ledger's totals cross-check the collector's counters) only holds if
// every code path that records a terminal outcome in the serving metrics
// also records the matching ledger event. PR 1 found the batcher shedding
// samples into the goodput meter with no ledger event — the audit caught
// it at runtime; this makes the pairing structural.
//
// Concretely: within scheduler and serving, any function body that
// performs terminal accounting — calling metrics.GoodputMeter.ServeOK or
// .Drop, or mutating the Collector's Dropped/Violations counters — must
// also record the ledger event in that same body: by calling
// audit.Ledger.Completed or .Dropped, or by calling a function of the
// same package whose own body calls one of them (the Collector's
// fan-out, which records every view's half of a boundary, ledger
// included). Otherwise the function must carry //e3:noledger <reason>
// (the reason is mandatory: the directive is an auditable claim that
// the accounting is not per-sample).
var LedgerPair = &Analyzer{
	Name: "ledgerpair",
	Doc: "terminal accounting (goodput meter hits, drop/violation counters) " +
		"must be paired with an audit.Ledger Completed/Dropped event in the " +
		"same function. Escape hatch: //e3:noledger <reason> (reason required).",
	Applies: scope(
		"e3/internal/scheduler",
		"e3/internal/serving",
	),
	Run: runLedgerPair,
}

const (
	metricsPkg = "e3/internal/metrics"
	auditPkg   = "e3/internal/audit"
)

func runLedgerPair(pass *Pass) {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}
	// recorders are the package's functions whose own body records a
	// ledger terminal event; calling one pairs the caller's accounting.
	recorders := make(map[types.Object]bool)
	for _, fn := range fns {
		if recordsTerminal(pass, fn.Body) {
			recorders[pass.Info.Defs[fn.Name]] = true
		}
	}
	for _, fn := range fns {
		checkLedgerPairing(pass, fn, recorders)
	}
}

// isLedgerTerminal reports whether call is audit.Ledger.Completed or
// .Dropped.
func isLedgerTerminal(pass *Pass, call *ast.CallExpr) bool {
	pkgPath, recv, method, ok := pass.MethodCall(call)
	return ok && pkgPath == auditPkg && recv == "Ledger" && (method == "Completed" || method == "Dropped")
}

// recordsTerminal reports whether body calls a ledger terminal event
// directly.
func recordsTerminal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isLedgerTerminal(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// calleeObj resolves a call's static callee (a function or a method named
// by a selector), or nil.
func calleeObj(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

func checkLedgerPairing(pass *Pass, fn *ast.FuncDecl, recorders map[types.Object]bool) {
	var firstTerminal ast.Node
	var terminalDesc string
	hasLedger := false

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLedgerTerminal(pass, n) || recorders[calleeObj(pass, n)] {
				hasLedger = true
			}
			pkgPath, recv, method, ok := pass.MethodCall(n)
			if !ok {
				return true
			}
			if pkgPath == metricsPkg && recv == "GoodputMeter" && (method == "ServeOK" || method == "Drop") {
				if firstTerminal == nil {
					firstTerminal = n
					terminalDesc = "GoodputMeter." + method
				}
			}
		case *ast.IncDecStmt:
			if name, ok := terminalCounter(pass, n.X); ok && firstTerminal == nil {
				firstTerminal = n
				terminalDesc = name
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN && n.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				if name, ok := terminalCounter(pass, lhs); ok && firstTerminal == nil {
					firstTerminal = n
					terminalDesc = name
				}
			}
		}
		return true
	})

	if firstTerminal == nil {
		return
	}
	reason, exempt := pass.FuncDirective(fn, "noledger")
	if exempt {
		if reason == "" {
			pass.Reportf(fn.Pos(), "//e3:noledger needs a reason: say why %s's terminal accounting in %s is not per-sample", terminalDesc, fn.Name.Name)
		}
		return
	}
	if hasLedger {
		return
	}
	pass.Reportf(firstTerminal.Pos(),
		"%s records a terminal outcome but %s never records a paired audit.Ledger Completed/Dropped event; the conservation audit will drift — pair the event or annotate the function //e3:noledger <reason>",
		terminalDesc, fn.Name.Name)
}

// terminalCounter reports whether the expression writes one of the
// Collector's terminal tally fields.
func terminalCounter(pass *Pass, e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Dropped" && sel.Sel.Name != "Violations" {
		return "", false
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Name() != "Collector" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "e3/internal/scheduler" {
		return "", false
	}
	return "Collector." + sel.Sel.Name, true
}
