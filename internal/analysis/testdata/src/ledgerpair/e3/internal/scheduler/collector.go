// Fixture for the ledgerpair analyzer. The bad cases mirror the
// pre-ledger batcher bug: terminal accounting (goodput-meter hits, drop
// counters) with no paired lifecycle event, which PR 1's conservation
// audit only caught at runtime.
package scheduler

import (
	"e3/internal/audit"
	"e3/internal/metrics"
)

type sample struct{ ID int64 }

// Collector mirrors the real scheduler.Collector's terminal tallies.
type Collector struct {
	Dropped    int
	Violations int
	Good       *metrics.GoodputMeter
	Audit      *audit.Ledger
}

// badDrop sheds into the counters with no ledger event.
func (c *Collector) badDrop(s sample, at float64) {
	c.Dropped++ // want `Collector\.Dropped records a terminal outcome`
	c.Good.Drop(at)
}

// badComplete credits goodput with no ledger event.
func (c *Collector) badComplete(s sample, at float64) {
	c.Good.ServeOK(1, at) // want `GoodputMeter\.ServeOK records a terminal outcome`
}

// badViolationTally bumps the violation counter with no ledger event.
func (c *Collector) badViolationTally(s sample, at float64) {
	c.Violations += 1 // want `Collector\.Violations records a terminal outcome`
}

// goodDrop pairs the accounting with the lifecycle event.
func (c *Collector) goodDrop(s sample, at float64) {
	c.Dropped++
	c.Good.Drop(at)
	c.Audit.Dropped(s.ID, at, "stale-shed")
}

// goodComplete pairs goodput credit with the completion event.
func (c *Collector) goodComplete(s sample, at float64) {
	c.Good.ServeOK(1, at)
	c.Audit.Completed(s.ID, at, 3)
}

// okReader only reads the tallies; reads are not terminal accounting.
func (c *Collector) okReader() int { return c.Dropped + c.Violations }

//e3:noledger window-level tally reset, not per-sample accounting
func (c *Collector) okExemptWindow() {
	c.Violations = 0
}

//e3:noledger
func (c *Collector) badExemptNoReason() { // want `//e3:noledger needs a reason`
	c.Violations++
}

// fanout records a view's half of a terminal boundary, ledger included.
type fanout Collector

func (f *fanout) completed(s sample, at float64) {
	f.Audit.Completed(s.ID, at, 3)
}

// tally only counts; it records no ledger event.
func (c *Collector) tally(s sample, at float64) {}

// goodViaFanout pairs its accounting through a same-package function
// that records the ledger event.
func (c *Collector) goodViaFanout(s sample, at float64) {
	c.Good.ServeOK(1, at)
	(*fanout)(c).completed(s, at)
}

// badViaHelper calls a same-package helper that records no ledger event.
func (c *Collector) badViaHelper(s sample, at float64) {
	c.Good.ServeOK(1, at) // want `GoodputMeter\.ServeOK records a terminal outcome`
	c.tally(s, at)
}
