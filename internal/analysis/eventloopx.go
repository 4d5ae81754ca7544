package analysis

import (
	"go/types"
	"strings"
)

// EventLoopInterproc extends the eventloop analyzer along call edges. The
// per-package rule keeps goroutines and channels out of the event-loop
// packages themselves, but a helper in any other package can smuggle the
// same hazard back in: event-loop code calls it, it spawns a goroutine,
// and the unsynchronized simulator state is suddenly shared. This
// analyzer walks every call edge that leaves the event-loop scope and
// flags the boundary call site when the callee (transitively) contains a
// concurrency construct.
//
// Suppression composes with the per-construct //e3:concurrent directives:
// a construct annotated at its own line (the deterministic,
// joined-before-return worker pool in internal/tasks that the planner and
// the fleet share) is considered safe for callers too,
// and the boundary call site itself may carry //e3:concurrent when the
// whole callee is a sanctioned concurrent edge.
var EventLoopInterproc = &Analyzer{
	Name: "eventloop-interproc",
	Doc: "flag calls from event-loop-owned packages into functions that " +
		"transitively use goroutines, channels, or sync primitives. " +
		"Escape hatch: //e3:concurrent <reason> on the construct or the " +
		"boundary call.",
	RunModule: runEventLoopInterproc,
}

// concReach is one reachable concurrency construct with the call chain
// that reaches it.
type concReach struct {
	use   Use
	chain []string
}

func runEventLoopInterproc(pass *ModulePass) {
	scoped := make(map[string]bool, len(eventLoopScope))
	for _, p := range eventLoopScope {
		scoped[p] = true
	}

	// memo caches per-function reachability. A nil entry means "no
	// unexempted construct reachable"; the in-progress sentinel breaks
	// call cycles (a cycle cannot introduce a construct on its own).
	memo := make(map[*types.Func]*concReach)
	inProgress := make(map[*types.Func]bool)

	var reach func(ff *FuncFacts) *concReach
	reach = func(ff *FuncFacts) *concReach {
		if r, done := memo[ff.Obj]; done {
			return r
		}
		if inProgress[ff.Obj] {
			return nil
		}
		inProgress[ff.Obj] = true
		defer delete(inProgress, ff.Obj)

		var result *concReach
		for _, use := range ff.Concurrency {
			if pass.Exempted(use.Pos, "concurrent") {
				continue
			}
			result = &concReach{use: use, chain: []string{ff.Name()}}
			break
		}
		if result == nil {
			for _, cs := range ff.Calls {
				if cs.Cold {
					continue
				}
				callee, inModule := pass.Facts.Funcs[cs.Callee]
				if !inModule || scoped[callee.Pkg.ImportPath] {
					// In-scope callees are the per-package analyzer's
					// problem (and other boundary edges' roots).
					continue
				}
				if r := reach(callee); r != nil {
					result = &concReach{use: r.use, chain: append([]string{ff.Name()}, r.chain...)}
					break
				}
			}
		}
		memo[ff.Obj] = result
		return result
	}

	for _, ff := range pass.Facts.Order {
		if !scoped[ff.Pkg.ImportPath] {
			continue
		}
		for _, cs := range ff.Calls {
			if cs.Cold {
				continue
			}
			callee, inModule := pass.Facts.Funcs[cs.Callee]
			if !inModule || scoped[callee.Pkg.ImportPath] {
				continue
			}
			r := reach(callee)
			if r == nil {
				continue
			}
			if pass.Exempted(cs.Pos, "concurrent") {
				continue
			}
			usePos := pass.Facts.Fset.Position(r.use.Pos)
			pass.Reportf(cs.Pos,
				"call from event-loop code reaches %s at %s:%d (via %s); the single-goroutine contract extends through every call edge (annotate //e3:concurrent <reason> on the construct or this call if the edge is sanctioned)",
				r.use.What, relBase(usePos.Filename), usePos.Line,
				ff.Name()+" → "+strings.Join(r.chain, " → "))
		}
	}
}

// relBase trims a position's path to its last two segments for readable
// messages (internal/optimizer/search.go).
func relBase(path string) string {
	segs := strings.Split(path, "/")
	if len(segs) <= 3 {
		return path
	}
	return strings.Join(segs[len(segs)-3:], "/")
}
