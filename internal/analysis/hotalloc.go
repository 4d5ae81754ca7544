package analysis

import (
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the allocation-free fast paths PR 5 and PR 6 bought
// with benchmarks: the engine's push/pop, the batch pool's get/put, the
// pipelined runner's SplitTable.RunInto, the sampled ledger's record. Those
// wins are fragile — one fmt.Sprintf or escaping closure added three
// helpers down restores per-event garbage, and nothing but a benchmark
// regression would notice. Annotating a function //e3:hotpath <reason>
// declares it allocation-free; hotalloc then walks every function
// transitively reachable through static call edges and flags each
// allocating construct, with the call chain that makes it hot.
//
// Self-appends (x = append(x, ...)) are tolerated because they amortize
// into recycled capacity — exactly the pooled-buffer pattern the fast
// paths use. Allocations inside panic arguments are cold by definition.
// Escape hatch for a deliberate allocation (a pool miss that must
// allocate): //e3:alloc <reason> on the allocating line.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //e3:hotpath must transitively avoid " +
		"allocating constructs (growing appends, closures, interface " +
		"boxing, fmt, string concat). Escape hatch: //e3:alloc <reason> " +
		"on the allocating line.",
	RunModule: runHotAlloc,
}

func runHotAlloc(pass *ModulePass) {
	// reported dedupes by alloc position: a construct in a shared helper
	// is reported once, attributed to the first hot root (in declaration
	// order) that reaches it.
	reported := make(map[token.Pos]bool)

	for _, root := range pass.Facts.Order {
		if _, isHot := pass.FuncDirective(root, "hotpath"); !isHot {
			continue
		}
		visited := make(map[*types.Func]bool)
		var walk func(ff *FuncFacts, chain []string)
		walk = func(ff *FuncFacts, chain []string) {
			if visited[ff.Obj] {
				return
			}
			visited[ff.Obj] = true
			chain = append(chain, ff.Name())

			for _, alloc := range ff.Allocs {
				if reported[alloc.Pos] {
					continue
				}
				if pass.Exempted(alloc.Pos, "alloc") {
					continue
				}
				reported[alloc.Pos] = true
				pass.Reportf(alloc.Pos,
					"%s allocates on the //e3:hotpath fast path rooted at %s (reached via %s); hoist it, reuse a buffer, or annotate //e3:alloc <reason>",
					alloc.What, root.Name(), strings.Join(chain, " → "))
			}
			for _, cs := range ff.Calls {
				if cs.Cold {
					continue
				}
				callee, inModule := pass.Facts.Funcs[cs.Callee]
				if !inModule {
					continue
				}
				walk(callee, chain)
			}
		}
		walk(root, nil)
	}
}
