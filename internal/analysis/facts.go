package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The facts layer is the tentpole of e3-lint v2: one types-backed pass
// over every loaded package that records, per declared function, the
// local facts each analyzer needs — static call edges (the module call
// graph), wall-clock and global-rand uses, concurrency constructs,
// allocating constructs, and map iterations. The per-package analyzers
// read their facts instead of re-walking the AST, and the interprocedural
// analyzers (detflow, hotalloc, errflow, eventloop-interproc) chase the
// call edges those facts define across function and package boundaries.
//
// Honest limits, stated once: the call graph is static. Edges exist for
// direct calls and for references to declared functions and methods
// (taking a method value to prebuild a closure creates an edge); calls
// through interface methods or unresolvable function values do not.
// Standard-library bodies are not walked, so edges stop at the module
// boundary. The runtime gates (race detector, digest property tests)
// remain the backstop for what static analysis cannot see.

// Use is one position-stamped local fact (a wall-clock read, a
// concurrency construct, an allocating construct).
type Use struct {
	Pos  token.Pos
	What string
}

// CallSite is one outgoing edge of a function: a direct call, or a
// reference to a declared function (method value / function value).
type CallSite struct {
	Pos    token.Pos
	Callee *types.Func
	// Ref marks a bare reference rather than a direct call. The function
	// may run later (prebuilt closures, callbacks), so reachability
	// analyses follow Ref edges too.
	Ref bool
	// Cold marks an edge inside a panic(...) argument: the callee runs
	// only on a path that is about to crash, so hot-path and event-loop
	// reachability skip it.
	Cold bool
	// Expr is the call expression for direct calls (nil for references).
	Expr *ast.CallExpr
}

// FuncFacts is everything the suite knows about one declared function.
type FuncFacts struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls lists outgoing edges in source order. Nested func literals
	// are included: a closure built by F calls (and allocates) on F's
	// behalf as far as the static graph is concerned.
	Calls []CallSite
	// WallClock lists calls of package time's clock-reading entry points.
	WallClock []Use
	// GlobalRand lists calls of math/rand's global top-level functions.
	GlobalRand []Use
	// Concurrency lists constructs that introduce or imply a second
	// goroutine: go statements, channel types/ops, select, sync primitives.
	Concurrency []Use
	// Allocs lists constructs that allocate on every execution: makes,
	// news, slice/map literals, escaping composite literals, func
	// literals, non-self appends, string concatenation, string/[]byte
	// conversions, fmt calls, interface boxing. Constructs inside panic
	// arguments are excluded — a panicking path is cold by definition.
	Allocs []Use
	// MapRanges lists range statements iterating a map directly.
	MapRanges []*ast.RangeStmt
}

// Name renders pkg.Receiver.Method or pkg.Func for diagnostics.
func (ff *FuncFacts) Name() string {
	obj := ff.Obj
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, isPtr := rt.(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			name = named.Obj().Name() + "." + name
		}
	}
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	return name
}

// Facts is the module-wide fact base, computed once per RunAnalyzers call
// and shared by every analyzer in the run.
type Facts struct {
	Fset *token.FileSet
	Pkgs []*Package
	Dirs *Directives

	// Funcs indexes facts by the canonical types.Func object. Objects are
	// shared across packages because the loader caches type-checked
	// packages, so a call edge recorded in pkg A resolves to the same
	// *types.Func the facts for pkg B were indexed under.
	Funcs map[*types.Func]*FuncFacts
	// Order lists functions deterministically: packages in load order,
	// files in name order, declarations in source order.
	Order []*FuncFacts
}

// ComputeFacts builds the fact base for a set of loaded packages.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Dirs:  ParseDirectives(pkgs),
		Funcs: make(map[*types.Func]*FuncFacts),
		Pkgs:  pkgs,
	}
	if len(pkgs) > 0 {
		f.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, isFn := pkg.Info.Defs[fd.Name].(*types.Func)
				if !isFn {
					continue
				}
				ff := &FuncFacts{Obj: obj, Decl: fd, Pkg: pkg}
				collectFuncFacts(pkg, fd, ff)
				f.Funcs[obj] = ff
				f.Order = append(f.Order, ff)
			}
		}
	}
	return f
}

// ByPackage returns the functions declared in the package with the given
// import path, in source order.
func (f *Facts) ByPackage(importPath string) []*FuncFacts {
	var out []*FuncFacts
	for _, ff := range f.Order {
		if ff.Pkg.ImportPath == importPath {
			out = append(out, ff)
		}
	}
	return out
}

// pkgPathOf resolves an expression to the import path of the package it
// names, if it is a package reference.
func pkgPathOf(info *types.Info, e ast.Expr) (string, bool) {
	ident, ok := unparen(e).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// funcOf resolves an expression to the declared function or method it
// names, through the type checker.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return usedFunc(info, e)
	case *ast.SelectorExpr:
		return usedFunc(info, e.Sel)
	}
	return nil
}

// usedFunc returns the declared function or method id names, or nil. A
// use of a generic function, or of a method of a generic type, resolves
// to its declaration, so call edges reach the one body every
// instantiation shares.
func usedFunc(info *types.Info, id *ast.Ident) *types.Func {
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// isPkgLevel reports whether fn is a package-level function (no receiver)
// of the given import path.
func isPkgLevel(fn *types.Func, pkgPath string) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// collectFuncFacts walks one function body (nested func literals
// included) and records its local facts.
func collectFuncFacts(pkg *Package, fd *ast.FuncDecl, ff *FuncFacts) {
	info := pkg.Info

	// Pre-passes over the body: mark panic(...) argument spans (cold by
	// definition — the fmt.Sprintf inside a bounds panic must not fail a
	// hot-path check) and x = append(x, ...)-shaped self-appends (which
	// amortize into recycled capacity, the pattern the data-plane pools
	// depend on, and therefore do not count as per-call allocations).
	var panicSpans [][2]token.Pos
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
					panicSpans = append(panicSpans, [2]token.Pos{n.Pos(), n.End()})
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				id, ok := unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "append" {
					continue
				}
				if exprEqual(n.Lhs[i], call.Args[0]) {
					selfAppends[call] = true
				}
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, span := range panicSpans {
			if pos >= span[0] && pos < span[1] {
				return true
			}
		}
		return false
	}
	addAlloc := func(pos token.Pos, what string) {
		if !inPanic(pos) {
			ff.Allocs = append(ff.Allocs, Use{Pos: pos, What: what})
		}
	}

	// callFuns marks Fun expressions of direct calls, and selIdents marks
	// Sel identifiers of visited selectors, so the reference cases below
	// do not double-count direct calls or selector children.
	callFuns := make(map[ast.Expr]bool)
	selIdents := make(map[*ast.Ident]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := unparen(n.Fun)
			callFuns[fun] = true
			if callee := funcOf(info, fun); callee != nil {
				ff.Calls = append(ff.Calls, CallSite{Pos: n.Pos(), Callee: callee, Cold: inPanic(n.Pos()), Expr: n})
				if isPkgLevel(callee, "time") && wallClockFuncs[callee.Name()] {
					ff.WallClock = append(ff.WallClock, Use{Pos: n.Pos(), What: "time." + callee.Name()})
				}
				if isPkgLevel(callee, "math/rand") && globalRandFuncs[callee.Name()] {
					ff.GlobalRand = append(ff.GlobalRand, Use{Pos: n.Pos(), What: "rand." + callee.Name()})
				}
			}
			collectCallAllocs(info, n, selfAppends, addAlloc)
		case *ast.Ident:
			if !callFuns[ast.Expr(n)] && !selIdents[n] {
				if fn := usedFunc(info, n); fn != nil && fn.Pkg() != nil {
					ff.Calls = append(ff.Calls, CallSite{Pos: n.Pos(), Callee: fn, Ref: true})
				}
			}
		case *ast.SelectorExpr:
			selIdents[n.Sel] = true
			if !callFuns[ast.Expr(n)] {
				if fn := usedFunc(info, n.Sel); fn != nil && fn.Pkg() != nil {
					ff.Calls = append(ff.Calls, CallSite{Pos: n.Pos(), Callee: fn, Ref: true})
				}
			}
			if pp, ok := pkgPathOf(info, n.X); ok && pp == "sync" && syncPrimitives[n.Sel.Name] {
				ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "sync." + n.Sel.Name})
			}
		case *ast.GoStmt:
			ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "go statement"})
		case *ast.SendStmt:
			ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "channel receive"})
			}
			if n.Op == token.AND {
				if _, isLit := unparen(n.X).(*ast.CompositeLit); isLit {
					addAlloc(n.Pos(), "address of composite literal")
				}
			}
		case *ast.SelectStmt:
			ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "select statement"})
		case *ast.ChanType:
			ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "channel type"})
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Chan:
					ff.Concurrency = append(ff.Concurrency, Use{Pos: n.Pos(), What: "range over a channel"})
				case *types.Map:
					ff.MapRanges = append(ff.MapRanges, n)
				}
			}
		case *ast.FuncLit:
			addAlloc(n.Pos(), "func literal (closure)")
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					addAlloc(n.Pos(), "slice literal")
				case *types.Map:
					addAlloc(n.Pos(), "map literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				// Constant-folded concatenation costs nothing at run time.
				if tv, known := info.Types[ast.Expr(n)]; !known || tv.Value == nil {
					addAlloc(n.OpPos, "string concatenation")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				addAlloc(n.TokPos, "string concatenation")
			}
		}
		return true
	})
}

// collectCallAllocs records the allocating aspects of one call: make/new
// builtins, non-self appends, fmt formatting, string/[]byte conversions,
// and interface boxing of concrete arguments.
func collectCallAllocs(info *types.Info, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, addAlloc func(token.Pos, string)) {
	fun := unparen(call.Fun)

	// Type conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if from != nil && isStringByteConversion(from.Underlying(), tv.Type.Underlying()) {
				addAlloc(call.Pos(), "string/[]byte conversion")
			}
		}
		return
	}

	if id, isIdent := fun.(*ast.Ident); isIdent {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				addAlloc(call.Pos(), "make")
			case "new":
				addAlloc(call.Pos(), "new")
			case "append":
				if !selfAppends[call] {
					addAlloc(call.Pos(), "append that is not x = append(x, ...)")
				}
			}
			return
		}
	}

	callee := funcOf(info, fun)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		addAlloc(call.Pos(), "fmt."+callee.Name()+" (formats and boxes)")
		return
	}

	// Interface boxing: a concrete argument passed to an interface-typed
	// parameter is heap-allocated by the conversion.
	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, isSlice := params.At(params.Len() - 1).Type().(*types.Slice); isSlice {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if basic, isBasic := at.(*types.Basic); isBasic && basic.Kind() == types.UntypedNil {
			continue
		}
		addAlloc(arg.Pos(), "interface boxing of a concrete value")
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isStringByteConversion(from, to types.Type) bool {
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStringType(from) && isBytes(to)) || (isBytes(from) && isStringType(to))
}

// exprEqual reports structural equality for the expression shapes that
// appear as assignment targets: identifiers, field selections, and
// constant/identifier index expressions.
func exprEqual(a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && exprEqual(a.X, b.X)
	case *ast.IndexExpr:
		b, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(a.X, b.X) && exprEqual(a.Index, b.Index)
	case *ast.BasicLit:
		b, ok := b.(*ast.BasicLit)
		return ok && a.Kind == b.Kind && a.Value == b.Value
	case *ast.StarExpr:
		b, ok := b.(*ast.StarExpr)
		return ok && exprEqual(a.X, b.X)
	}
	return false
}
