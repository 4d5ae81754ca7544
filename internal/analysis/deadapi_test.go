package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"e3/internal/analysis"
)

// testOnlyAllowed lists the exported functions and methods under
// internal/ that no program calls but that stay, each with the reason.
// A name is keyed as "pkg.Func" or "pkg.Type.Method" (pkg is the path
// below e3/internal/).
var testOnlyAllowed = map[string]string{
	"analysis/analysistest.Run": "the analyzer fixture harness; a test library by design",
	"cliutil/clitest.Main":      "runs a command's main in a test child process; a test library by design",
	"cliutil/clitest.Run":       "runs a command's main in a test child process; a test library by design",

	// Oracles: a test compares the program's result against them.
	"optimizer.MinimizeCostReference": "exhaustive search the memoized cost planner is checked against",
	"optimizer.MinimizeGPUsReference": "exhaustive search the memoized GPU planner is checked against",
	"optimizer.SearchTrace.Accounted": "the search trace's own balance, checked after every traced search",
	"sim.ReferenceEngine.Now":         "reference engine the event loop is checked against",
	"sim.ReferenceEngine.Pending":     "reference engine the event loop is checked against",
	"sim.ReferenceEngine.Processed":   "reference engine the event loop is checked against",
	"sim.ReferenceEngine.RunAll":      "reference engine the event loop is checked against",
	"metrics.LatencyRecorder.Samples": "raw latencies the selection quantiles are checked against",
	"audit.Ledger.Events":             "per-sample chains checked against the test's own per-id lists",
	"audit.Ledger.Samples":            "tracked-sample count the sampled-ledger tests check",
	"audit.Ledger.Stride":             "stride the full-walk verify oracle replays with",
	"slo.Breakdown.Sum":               "component sum a breakdown must reconcile against end to end",
	"slo.Breakdown.Component":         "one component of a breakdown, checked against hand-computed parts",
	"flame.JoinStack":                 "inverse of the folded-stack splitter, the round-trip oracle",
	"bench.Decode":                    "inverse of Wrap, the envelope round-trip oracle",
	"model.Model.TotalFLOPs":          "whole-model FLOPs the zoo's per-layer tables are checked against",

	// Hooks: a test reads them to check another behaviour.
	"scheduler.Pipeline.PendingMerge": "merge queues must be empty after a drain",
	"slo.Attribution.Open":            "open requests must be released after a drain",
	"workload.BatchPool.Stats":        "batches must be recycled rather than allocated",
	"fleet.Replica.Pool":              "each shard must own its batch pool",
}

// TestNoTestOnlyAPI fails on any exported function or method under
// internal/ that nothing outside tests calls, that implements no
// interface method, and that testOnlyAllowed does not keep with a reason.
// The module load includes cmd/, examples/ and benchmark/ (its own module,
// type-checked here with the rest), so their calls count. Such a name is
// surface no program uses: delete it and assert through the API that
// remains.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	_, pkgs := loadModule(t)
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.ImportPath] = true
	}
	if !loaded["e3/benchmark"] || !loaded["e3/cmd/e3-bench"] {
		t.Fatal("the module load misses benchmark/ or cmd/: their calls would not count")
	}

	// A use inside the function's own body (recursion) is not a caller.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					decls[p.Info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fd := decls[fn.Origin()]
				used[fn.Origin()] = used[fn.Origin()] || fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End()
			}
		}
	}

	ifaces := usedInterfaces(pkgs)
	var unused []string
	for fn, fd := range decls {
		rel, ok := strings.CutPrefix(fn.Pkg().Path(), "e3/internal/")
		if !ok || !fn.Exported() || used[fn] {
			continue
		}
		key := rel + "." + fn.Name()
		if fd.Recv != nil {
			named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
			if !named.Obj().Exported() || implementsAny(named, fn.Name(), ifaces) {
				continue
			}
			key = rel + "." + named.Obj().Name() + "." + fn.Name()
		}
		unused = append(unused, key)
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s is exported but no program calls it: delete it, or allow it with a reason", key)
		}
	}
	for key := range testOnlyAllowed {
		if i := sort.SearchStrings(unused, key); i == len(unused) || unused[i] != key {
			t.Errorf("allowlist entry %s is stale: a program calls it now, or it is gone", key)
		}
	}
}

func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// usedInterfaces returns every interface a method can implement for the
// module: those any declared object, expression or signature in it has as
// its type, and those the standard library looks for in an any (fmt's
// Stringer and Formatter, the JSON and text marshalers).
func usedInterfaces(pkgs []*analysis.Package) []*types.Interface {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
		switch u := t.(type) {
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					visit(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			visit(u.Elem())
		case *types.Slice:
			visit(u.Elem())
		case *types.Map:
			visit(u.Key())
			visit(u.Elem())
		case *types.Chan:
			visit(u.Elem())
		}
	}
	dynamic := map[string][]string{
		"fmt":           {"Stringer", "GoStringer", "Formatter"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
	}
	imported := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		for _, name := range dynamic[p.Path()] {
			visit(p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			visit(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
	}
	return ifaces
}

// implementsAny reports whether named or *named implements one of ifaces
// that has a method called name.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false // an uninstantiated generic type implements nothing
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

var module struct {
	once   sync.Once
	loader *analysis.Loader
	pkgs   []*analysis.Package
	err    error
}

// loadModule type-checks every package of the module once per test
// binary; the tests only read the result.
func loadModule(t *testing.T) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	module.once.Do(func() {
		wd, err := os.Getwd()
		if err == nil {
			module.loader, err = analysis.NewModuleLoader(wd)
		}
		if err == nil {
			module.pkgs, err = module.loader.LoadPatterns([]string{"./..."})
		}
		module.err = err
	})
	if module.err != nil {
		t.Fatalf("loading module packages: %v", module.err)
	}
	return module.loader, module.pkgs
}
