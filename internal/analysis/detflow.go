package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetFlow is the interprocedural determinism-taint analyzer. The
// simulator's whole contract is that one seed produces one byte-identical
// run; that contract dies the moment a value derived from the wall clock,
// the global rand source, or randomized map-iteration order flows into
// the deterministic core — an engine schedule time, ledger accounting (a
// digest input), or an exported trace span. The v1 analyzers forbid the
// sources *inside* sim-domain packages; detflow chases the values through
// any chain of calls, so a helper three packages away that returns
// time.Now-derived jitter is caught at the call site that feeds it to
// Engine.At.
//
// Two rules:
//
//  1. Taint flow: wall-clock and global-rand results, and the results of
//     any function that (transitively) returns one, may not appear as a
//     sink argument. Wrappers that pass a parameter straight into a sink
//     become sinks in that position themselves, so taint is caught even
//     when the source and the sink meet two call edges apart. Escape
//     hatch: //e3:detflow <reason> on the sink call.
//
//  2. Map order: `for k := range m` over a map in a sim-domain package is
//     flagged unless the body is order-independent (delete, same-key map
//     copy, integer accumulation) or collects into a slice that is
//     sorted afterwards. Escape hatch: //e3:unordered <reason>.
//
// Known limits (by design, stdlib-only static analysis): taint propagates
// through return values and through direct sink-wrapper parameters, not
// through arbitrary parameter chains, struct fields, or interface calls;
// the runtime digest property tests remain the backstop.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: "forbid values derived from wall clock, global rand, or map " +
		"iteration order from flowing into engine schedule times, ledger " +
		"accounting, or exported traces, across call chains; flag " +
		"order-dependent map iteration in sim-domain packages. Escape " +
		"hatches: //e3:detflow <reason> (sink call), //e3:unordered " +
		"<reason> (map range).",
	RunModule: runDetFlow,
}

// detflowSinkMethods maps (pkg, receiver, method) to a description of the
// deterministic input the method consumes. A sink match means "a
// nondeterministic value just entered the reproducible core".
var detflowSinkMethods = map[[3]string]string{
	{"e3/internal/sim", "Engine", "At"}:    "an engine schedule time",
	{"e3/internal/sim", "Engine", "After"}: "an engine schedule delay",
	{"e3/internal/sim", "Timer", "Reset"}:  "an engine schedule time",

	{"e3/internal/audit", "Ledger", "Arrived"}:       "ledger accounting (a digest input)",
	{"e3/internal/audit", "Ledger", "Queued"}:        "ledger accounting (a digest input)",
	{"e3/internal/audit", "Ledger", "DispatchedIDs"}: "ledger accounting (a digest input)",
	{"e3/internal/audit", "Ledger", "MergedIDs"}:     "ledger accounting (a digest input)",
	{"e3/internal/audit", "Ledger", "Completed"}:     "ledger accounting (a digest input)",
	{"e3/internal/audit", "Ledger", "Dropped"}:       "ledger accounting (a digest input)",

	{"e3/internal/telemetry", "Tracer", "Record"}:       "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Execute"}:      "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "QueueWait"}:    "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Transfer"}:     "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Fuse"}:         "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Replan"}:       "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "PlanCacheHit"}: "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Arrive"}:       "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Complete"}:     "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "Drop"}:         "an exported trace span",
	{"e3/internal/telemetry", "Tracer", "SLOBurn"}:      "an exported trace span",
}

// detflowScope lists the packages whose map iterations must be
// order-independent: everything that computes, accounts, traces, plans,
// or renders simulator results.
var detflowScope = map[string]bool{
	"e3/internal/sim":         true,
	"e3/internal/simnet":      true,
	"e3/internal/scheduler":   true,
	"e3/internal/serving":     true,
	"e3/internal/httpapi":     true,
	"e3/internal/metrics":     true,
	"e3/internal/audit":       true,
	"e3/internal/exec":        true,
	"e3/internal/trace":       true,
	"e3/internal/profile":     true,
	"e3/internal/workload":    true,
	"e3/internal/experiments": true,
	"e3/internal/telemetry":   true,
	"e3/internal/replan":      true,
	"e3/internal/slo":         true,
	"e3/internal/flame":       true,
	"e3/internal/optimizer":   true,
	"e3/internal/forecast":    true,
	"e3/internal/ee":          true,
	"e3/internal/store":       true,
}

// taintInfo describes why a function's return value (or an object) is
// nondeterministic.
type taintInfo struct {
	// source names the original nondeterminism ("time.Now", "rand.Intn").
	source string
	// via renders the call chain from source to here, for the diagnostic.
	via string
}

func (t *taintInfo) describe() string {
	if t.via == "" {
		return t.source
	}
	return t.source + " (via " + t.via + ")"
}

// detflowState is the module-wide fixpoint state.
type detflowState struct {
	pass *ModulePass
	// retTaint summarizes functions whose return values are tainted.
	retTaint map[*types.Func]*taintInfo
	// sinkParams summarizes wrapper functions that pass a parameter into
	// a sink: param index -> sink description.
	sinkParams map[*types.Func]map[int]string
}

func runDetFlow(pass *ModulePass) {
	st := &detflowState{
		pass:       pass,
		retTaint:   make(map[*types.Func]*taintInfo),
		sinkParams: make(map[*types.Func]map[int]string),
	}
	// Fixpoint over return-taint and sink-param summaries: each round
	// re-analyzes every function against the current summaries until
	// nothing changes. Terminates because both summary maps only grow.
	for changed := true; changed; {
		changed = false
		for _, ff := range pass.Facts.Order {
			if st.analyzeFunc(ff, nil) {
				changed = true
			}
		}
	}
	// Reporting pass against the converged summaries.
	for _, ff := range pass.Facts.Order {
		st.analyzeFunc(ff, func(pos token.Pos, taint *taintInfo, sinkName, sinkDesc string) {
			if pass.Exempted(pos, "detflow") {
				return
			}
			pass.Reportf(pos,
				"value derived from %s flows into %s (%s); the deterministic core must see only virtual time and seeded rand (annotate //e3:detflow <reason> if the flow is provably harmless)",
				taint.describe(), sinkName, sinkDesc)
		})
	}
	// Map-order rule, purely local.
	for _, ff := range pass.Facts.Order {
		if !detflowScope[ff.Pkg.ImportPath] {
			continue
		}
		checkMapRanges(pass, ff)
	}
}

// sinkOf resolves a called function to a sink description, consulting
// both the built-in method table and the learned wrapper summaries.
func (st *detflowState) sinkOf(callee *types.Func) (name, desc string, params map[int]string) {
	if pkg, recv, method, ok := methodTriple(callee); ok {
		if d, hit := detflowSinkMethods[[3]string{pkg, recv, method}]; hit {
			all := make(map[int]string)
			all[-1] = d // every argument position counts for direct sinks
			return recv + "." + method, d, all
		}
	}
	if ps, ok := st.sinkParams[callee]; ok && len(ps) > 0 {
		return callee.Name(), "a sink wrapper", ps
	}
	return "", "", nil
}

// analyzeFunc runs the intra-procedural taint walk over one function. It
// returns true if the function's summaries changed. When report is
// non-nil, sink violations are emitted through it instead.
func (st *detflowState) analyzeFunc(ff *FuncFacts, report func(token.Pos, *taintInfo, string, string)) bool {
	info := ff.Pkg.Info
	tainted := make(map[types.Object]*taintInfo)
	changed := false

	// Parameter objects, for sink-wrapper summarization.
	paramIndex := make(map[types.Object]int)
	if sig, ok := ff.Obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			paramIndex[sig.Params().At(i)] = i
		}
	}

	var exprTaint func(e ast.Expr) *taintInfo
	exprTaint = func(e ast.Expr) *taintInfo {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return tainted[obj]
			}
		case *ast.ParenExpr:
			return exprTaint(e.X)
		case *ast.UnaryExpr:
			return exprTaint(e.X)
		case *ast.StarExpr:
			return exprTaint(e.X)
		case *ast.SelectorExpr:
			return exprTaint(e.X)
		case *ast.IndexExpr:
			return exprTaint(e.X)
		case *ast.SliceExpr:
			return exprTaint(e.X)
		case *ast.BinaryExpr:
			// Comparisons yield bools; branching on taint is an implicit
			// flow this analysis deliberately ignores.
			switch e.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
				token.LAND, token.LOR:
				return nil
			}
			if t := exprTaint(e.X); t != nil {
				return t
			}
			return exprTaint(e.Y)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if t := exprTaint(elt); t != nil {
					return t
				}
			}
		case *ast.KeyValueExpr:
			return exprTaint(e.Value)
		case *ast.CallExpr:
			return st.callTaint(ff, e, exprTaint)
		}
		return nil
	}

	markObj := func(obj types.Object, t *taintInfo) {
		if obj == nil {
			return
		}
		if t == nil {
			delete(tainted, obj)
			return
		}
		tainted[obj] = t
	}
	identObj := func(e ast.Expr) types.Object {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}

	// Two passes over the body propagate loop-carried taint one level —
	// enough for the shapes that occur in practice.
	for pass := 0; pass < 2; pass++ {
		final := report != nil && pass == 1
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						markObj(identObj(n.Lhs[i]), exprTaint(n.Rhs[i]))
					}
				} else if len(n.Rhs) == 1 {
					t := exprTaint(n.Rhs[0])
					for _, lhs := range n.Lhs {
						markObj(identObj(lhs), t)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					var t *taintInfo
					if i < len(n.Values) {
						t = exprTaint(n.Values[i])
					} else if len(n.Values) == 1 {
						t = exprTaint(n.Values[0])
					}
					markObj(info.Defs[name], t)
				}
			case *ast.RangeStmt:
				if t := exprTaint(n.X); t != nil {
					markObj(identObj(n.Key), t)
					if n.Value != nil {
						markObj(identObj(n.Value), t)
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if t := exprTaint(res); t != nil {
						if _, have := st.retTaint[ff.Obj]; !have {
							st.retTaint[ff.Obj] = &taintInfo{source: t.source, via: chainVia(t, ff)}
							changed = true
						}
					}
				}
			case *ast.CallExpr:
				callee := funcOf(info, n.Fun)
				if callee == nil {
					return true
				}
				_, _, sinkParams := st.sinkOf(callee)
				if sinkParams == nil {
					return true
				}
				sinkName, sinkDesc, _ := st.sinkOf(callee)
				_, anyArg := sinkParams[-1]
				for i, arg := range n.Args {
					if !anyArg {
						if _, isSink := sinkParams[i]; !isSink {
							continue
						}
					}
					if t := exprTaint(arg); t != nil && final {
						report(n.Pos(), t, sinkName, sinkDesc)
					}
					// A parameter of this function feeding the sink makes
					// this function a sink wrapper at that position.
					if obj := identObj(arg); obj != nil {
						if pi, isParam := paramIndex[obj]; isParam && tainted[obj] == nil {
							if st.sinkParams[ff.Obj] == nil {
								st.sinkParams[ff.Obj] = make(map[int]string)
							}
							if _, have := st.sinkParams[ff.Obj][pi]; !have {
								st.sinkParams[ff.Obj][pi] = sinkDesc
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return changed
}

// callTaint decides whether a call expression produces a tainted value.
func (st *detflowState) callTaint(ff *FuncFacts, call *ast.CallExpr, exprTaint func(ast.Expr) *taintInfo) *taintInfo {
	info := ff.Pkg.Info
	fun := unparen(call.Fun)

	// Conversions pass taint through.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			if t := exprTaint(arg); t != nil {
				return t
			}
		}
		return nil
	}
	// Builtins (len, cap, append...) launder taint into order-independent
	// quantities; append keeps the slice's taint.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "append" {
				for _, arg := range call.Args {
					if t := exprTaint(arg); t != nil {
						return t
					}
				}
			}
			return nil
		}
	}

	// A method's receiver carries taint like an argument does:
	// time.Now().UnixNano() is tainted because its receiver is.
	recvTaint := func() *taintInfo {
		if sel, isSel := fun.(*ast.SelectorExpr); isSel {
			if _, isPkg := pkgPathOf(info, sel.X); !isPkg {
				return exprTaint(sel.X)
			}
		}
		return nil
	}

	callee := funcOf(info, fun)
	if callee == nil {
		// Unresolvable call (function value, interface method): assume
		// taint passes through receiver and arguments.
		if t := recvTaint(); t != nil {
			return t
		}
		for _, arg := range call.Args {
			if t := exprTaint(arg); t != nil {
				return t
			}
		}
		return nil
	}
	// The sources themselves.
	if isPkgLevel(callee, "time") && wallClockFuncs[callee.Name()] {
		return &taintInfo{source: "time." + callee.Name()}
	}
	if isPkgLevel(callee, "math/rand") && globalRandFuncs[callee.Name()] {
		return &taintInfo{source: "rand." + callee.Name()}
	}
	// In-module functions: trust the fixpoint summary.
	if _, inModule := st.pass.Facts.Funcs[callee]; inModule {
		if t, isTainted := st.retTaint[callee]; isTainted {
			return t
		}
		return nil
	}
	// Out-of-module (stdlib) functions: conservatively pass taint from
	// receiver and arguments to result (fmt.Sprintf(tainted) is tainted,
	// and so is tainted.UnixNano()).
	if t := recvTaint(); t != nil {
		return t
	}
	for _, arg := range call.Args {
		if t := exprTaint(arg); t != nil {
			return t
		}
	}
	return nil
}

// chainVia extends a taint's call-chain rendering with the function now
// returning it.
func chainVia(t *taintInfo, ff *FuncFacts) string {
	name := ff.Name()
	if t.via == "" {
		return name
	}
	if len(t.via) > 120 {
		return t.via // cap the chain; the head names the source
	}
	return t.via + " → " + name
}

// checkMapRanges applies the map-order rule to one function.
func checkMapRanges(pass *ModulePass, ff *FuncFacts) {
	for _, rs := range ff.MapRanges {
		if pass.Exempted(rs.Pos(), "unordered") {
			continue
		}
		if mapRangeOrderIndependent(ff, rs) {
			continue
		}
		pass.Reportf(rs.Pos(),
			"map iteration order is randomized and this range's effects depend on it, inside a deterministic simulation domain; iterate sorted keys, make the body order-independent, or annotate //e3:unordered <reason>")
	}
}

// mapRangeOrderIndependent recognizes the bodies whose effects cannot
// depend on iteration order:
//
//   - delete(m, k) loops
//   - key-derived writes into another map (m2[k] = ..., m2[string(k)] = ...)
//   - integer/boolean accumulation (+=, |=, ++, counters)
//   - writes to variables declared inside the body (per-iteration scratch)
//   - if statements whose branches are themselves order-independent
//     (continue is fine, break/return are not — they stop at an
//     order-chosen iteration)
//   - collect-into-slice loops whose slice is sorted after the loop
//
// Anything else — emitting output, appending without a later sort,
// floating-point accumulation (non-associative), early exits — is
// order-dependent and flagged.
func mapRangeOrderIndependent(ff *FuncFacts, rs *ast.RangeStmt) bool {
	info := ff.Pkg.Info
	keyObj := rangeVarObj(info, rs.Key)

	st := &mapRangeCheck{
		info:      info,
		keyObj:    keyObj,
		bodyStart: rs.Body.Pos(),
		bodyEnd:   rs.Body.End(),
	}
	if rs.Value != nil {
		st.valueObj = rangeVarObj(info, rs.Value)
	}
	for _, stmt := range rs.Body.List {
		if !st.safeStmt(stmt) {
			return false
		}
	}
	for _, obj := range st.collected {
		if !sortedAfter(ff, rs, obj) {
			return false
		}
	}
	return true
}

// mapRangeCheck carries the state of one map-range safe-shape analysis.
type mapRangeCheck struct {
	info               *types.Info
	keyObj, valueObj   types.Object
	bodyStart, bodyEnd token.Pos
	// collected gathers slice objects appended to inside the body; each
	// must be sorted after the loop for the shape to count as safe.
	collected []types.Object
}

// bodyLocal reports whether obj is declared inside the loop body (or is
// the iteration variable itself): writing it affects one iteration only.
func (st *mapRangeCheck) bodyLocal(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if obj == st.keyObj || obj == st.valueObj {
		return true
	}
	return obj.Pos() >= st.bodyStart && obj.Pos() < st.bodyEnd
}

// keyDerived reports whether an index expression is the range key or a
// conversion of it — an injective function of the key, so writes land in
// distinct cells per iteration.
func (st *mapRangeCheck) keyDerived(e ast.Expr) bool {
	e = unparen(e)
	if st.keyObj != nil && usesOnlyObj(st.info, e, st.keyObj) {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, isType := st.info.Types[unparen(call.Fun)]; isType && tv.IsType() {
			return st.keyDerived(call.Args[0])
		}
	}
	return false
}

// safeStmt classifies one body statement.
func (st *mapRangeCheck) safeStmt(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		// delete(m', k) is commutative across distinct keys.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, isBuiltin := st.info.Uses[id].(*types.Builtin)
		return isBuiltin && b.Name() == "delete"
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.IncDecStmt:
		if obj := objOf(st.info, s.X); st.bodyLocal(obj) {
			return true
		}
		return !isFloatExpr(st.info, s.X)
	case *ast.IfStmt:
		if s.Init != nil && !st.safeStmt(s.Init) {
			return false
		}
		for _, bs := range s.Body.List {
			if !st.safeStmt(bs) {
				return false
			}
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				for _, bs := range e.List {
					if !st.safeStmt(bs) {
						return false
					}
				}
			case *ast.IfStmt:
				return st.safeStmt(e)
			}
		}
		return true
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
				// Integer accumulation commutes; float accumulation is
				// non-associative and therefore order-dependent — unless
				// the target lives one iteration only.
				if st.bodyLocal(objOf(st.info, lhs)) {
					continue
				}
				if isFloatExpr(st.info, lhs) {
					return false
				}
			case token.ASSIGN, token.DEFINE:
				// Per-iteration scratch: writes to body-local variables.
				if st.bodyLocal(objOf(st.info, lhs)) {
					continue
				}
				if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
					// m2[k] = ... writes distinct cells per iteration.
					if st.keyDerived(idx.Index) {
						continue
					}
					return false
				}
				// x = append(x, ...) collects; defer the verdict to the
				// after-loop sort check.
				if call, ok := unparen(s.Rhs[i]).(*ast.CallExpr); ok {
					if id, isID := unparen(call.Fun).(*ast.Ident); isID {
						if b, isB := st.info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && len(call.Args) > 0 && exprEqual(lhs, call.Args[0]) {
							if obj := objOf(st.info, lhs); obj != nil {
								st.collected = append(st.collected, obj)
								continue
							}
						}
					}
				}
				return false
			default:
				return false
			}
		}
		return true
	default:
		return false
	}
}

// sortedAfter reports whether obj is passed to a sort.* call after the
// range statement, anywhere in the function body.
func sortedAfter(ff *FuncFacts, rs *ast.RangeStmt, obj types.Object) bool {
	info := ff.Pkg.Info
	found := false
	ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		callee := funcOf(info, call.Fun)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sort" {
			return true
		}
		if objOf(info, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}

func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// objOf resolves an identifier or selector to its object.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// usesOnlyObj reports whether expression e is exactly a use of obj.
func usesOnlyObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
