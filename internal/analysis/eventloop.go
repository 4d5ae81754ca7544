package analysis

import (
	"go/ast"
	"go/token"
)

// syncPrimitives are the sync types whose presence implies shared-memory
// concurrency. Once/Pool are tolerated: they are initialization and
// allocation tools, not cross-goroutine protocols.
var syncPrimitives = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Cond":      true,
	"Map":       true,
}

// EventLoop makes the simulator's single-goroutine discipline structural.
// The sim engine, runners, batcher, and collector all mutate shared state
// with no synchronization, on the explicit contract that every callback
// runs on the event loop's goroutine. ROADMAP's race-detector recipe
// checks that contract probabilistically; this analyzer checks it at
// build time by forbidding the constructs that would introduce a second
// goroutine or pretend to tolerate one: go statements, channel types and
// operations, select, and sync primitives. The REST front end is the one
// legitimate concurrent edge (net/http runs handlers on its own
// goroutines) and carries //e3:concurrent where it guards its counters.
//
// v2: function bodies are read from the shared facts layer; struct
// fields, signatures, and package-level declarations still need a
// residual walk. The interprocedural extension (eventloop-interproc)
// follows call edges out of these packages.
var EventLoop = &Analyzer{
	Name: "eventloop",
	Doc: "forbid goroutines, channels, select, and sync primitives inside " +
		"event-loop-owned packages; all simulator state is single-goroutine " +
		"by contract. Escape hatch: //e3:concurrent <reason>.",
	Applies: scope(eventLoopScope...),
	Run:     runEventLoop,
}

// eventLoopScope lists the event-loop-owned packages. It is shared with
// eventloop-interproc, whose root set is exactly these packages.
var eventLoopScope = []string{
	"e3/internal/sim",
	"e3/internal/scheduler",
	"e3/internal/serving",
	"e3/internal/telemetry",
	"e3/internal/replan",
	"e3/internal/slo",
	"e3/internal/flame",
	"e3/internal/store",
	// The fleet tier runs N event loops, but each shard's code is still
	// loop-owned: the ONLY sanctioned concurrency is the annotated worker
	// pool the shards run on (internal/tasks, outside this scope). A
	// goroutine leaked into per-shard loop code is exactly the bug this
	// scope exists to catch — now at N loops instead of one.
	"e3/internal/fleet",
}

func runEventLoop(pass *Pass) {
	for _, ff := range pass.Facts.ByPackage(pass.ImportPath) {
		for _, use := range ff.Concurrency {
			reportEventLoop(pass, use.Pos, eventLoopPhrase(use.What))
		}
	}
	inspectOutsideBodies(pass.Files, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ChanType:
			reportEventLoop(pass, n.Pos(), "channel type")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportEventLoop(pass, n.Pos(), "channel receive")
			}
		case *ast.SelectorExpr:
			if pp, ok := pkgPathOf(pass.Info, n.X); ok && pp == "sync" && syncPrimitives[n.Sel.Name] {
				reportEventLoop(pass, n.Pos(), "sync."+n.Sel.Name)
			}
		}
		return true
	})
}

// eventLoopPhrase renders a concurrency fact for the diagnostic message.
func eventLoopPhrase(what string) string {
	if what == "go statement" {
		return "go statement starts a second goroutine"
	}
	return what
}

func reportEventLoop(pass *Pass, pos token.Pos, what string) {
	if pass.Exempted(pos, "concurrent") {
		return
	}
	pass.Reportf(pos,
		"%s inside an event-loop-owned package breaks the single-goroutine contract the unsynchronized simulator state depends on (annotate //e3:concurrent <reason> for a real concurrent edge)",
		what)
}
