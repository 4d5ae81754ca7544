// Package scheduler executes plans on the simulated cluster: E3's
// heterogeneity-aware model-parallel pipeline (§3.3), the data-parallel
// runner the baselines use, and the phase-synchronized serial runner of
// the model-parallelism ablation (§5.8.7). All runners share a Collector
// that accounts goodput, latency, utilization, and the observed exit
// histogram that feeds E3's online profiler.
package scheduler

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/exec"
	"e3/internal/flame"
	"e3/internal/metrics"
	"e3/internal/profile"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// Runner is anything that accepts formed batches and serves them.
type Runner interface {
	// Ingest hands a formed batch to the runner at the current virtual
	// time. The runner owns the samples from then on.
	Ingest(batch []workload.Sample)
	// Collector exposes the runner's statistics sink.
	Collector() *Collector
}

// Observers is the set of optional views that watch every request
// boundary beside the audit ledger. Each field is nil-able, and a nil view
// records nothing at zero cost. Runners and the batcher never call a view
// directly: they report each boundary once through a Collector method,
// which fans it out to the ledger, Util and whichever views are attached.
//
// Once the collector streams (Collector.Stream), the ledger and the views
// belong to its consumer goroutine: read them only after Close or
// AuditReport, or inside a flight-recorder trigger that follows Sync.
type Observers struct {
	// Tracer records queue-wait, execute, transfer and fusion spans plus
	// terminal events, so its counters reconcile with the ledger.
	Tracer *telemetry.Tracer
	// Attr folds per-request critical-path breakdowns; every breakdown
	// must sum to its request's end-to-end latency.
	Attr *slo.Attribution
	// Flame folds executed batches, transfers and fusion waits into a
	// virtual-time compute profile that reconciles exactly against Util.
	Flame *flame.Profiler
}

// Collector accumulates serving statistics.
//
// Its loop-side state (Lat, Good, Util, the exit histogram and the window
// counters) is updated on the event loop at every boundary, because the
// estimator and the spike buffers read it at each window end. The ledger
// and the views are fed by the fan-out (fanout): inline by default, or,
// after Stream, by one consumer goroutine that applies an ordered record
// stream. Either way each view sees the same calls in the same order.
type Collector struct {
	SLO float64

	Lat  metrics.LatencyRecorder
	Good *metrics.GoodputMeter
	Util *metrics.UtilizationTracker

	// Violations counts samples completed after their deadline; Dropped
	// counts samples shed before execution.
	Violations int
	Dropped    int

	// Audit is an optional lifecycle ledger shared by the generator, the
	// batcher, and the runner (nil disables auditing at zero cost). It is
	// the reference the observers reconcile against.
	Audit *audit.Ledger

	// Observers are the optional views fed the same boundaries as Audit.
	Observers

	// utilSlots[i] is Util's slot for cluster device i, set by Register
	// so Executed reaches it without hashing the device's ID.
	utilSlots []int

	// exitCounts[k] counts samples that exited after layer k (1-based).
	exitCounts []int
	layers     int

	// Per-window counters for the overload detector (reset each window).
	windowServed     int
	windowViolations int

	// st is the live boundary stream (nil: the fan-out runs inline).
	st *stream

	// The fan-out's own state, owned by whichever goroutine applies
	// boundaries: devs[i] names cluster device i for the tracer and holds
	// its flame handle; flameWindows are the profile snapshots taken at
	// each SnapshotFlame.
	devs         []devView
	flameWindows []*flame.Profile
}

// devView is one registered device as the views see it.
type devView struct {
	id, kind string
	flame    flame.Dev
}

// NewCollector builds a collector for an L-layer model.
func NewCollector(layers int, slo, start float64) *Collector {
	return &Collector{
		SLO:        slo,
		Good:       metrics.NewGoodputMeter(start),
		Util:       metrics.NewUtilizationTracker(start),
		exitCounts: make([]int, layers+1),
		layers:     layers,
	}
}

// fan is the collector's view-side half.
func (c *Collector) fan() *fanout { return (*fanout)(c) }

// Register adds dev, the device at index device of its cluster, to the
// utilization ledger and the flame fold, so a device that never runs a
// batch still appears, idle. A runner registers every device it will
// report through Executed.
func (c *Collector) Register(dev *cluster.Device, device int) {
	for len(c.utilSlots) <= device {
		c.utilSlots = append(c.utilSlots, 0)
	}
	c.utilSlots[device] = c.Util.Register(dev.ID)
	if c.st != nil {
		c.st.strs(opRegister, device, dev.ID, string(dev.Kind))
		return
	}
	c.fan().register(device, dev.ID, string(dev.Kind))
}

// Arrived records a minted sample's arrival. A streaming collector is its
// generator's workload.ArrivalSink, so arrivals join the same stream.
func (c *Collector) Arrived(s workload.Sample) {
	if c.st != nil {
		c.st.arrived(s)
		return
	}
	c.fan().arrived(s)
}

// Queued records a sample admitted to the batcher's queue at `at`.
func (c *Collector) Queued(s workload.Sample, at float64) {
	if c.st != nil {
		c.st.queued(s, at)
		return
	}
	c.fan().queued(s, at)
}

// QueueWait records a batch leaving the batcher at `at`; its head waited
// there since its arrival.
func (c *Collector) QueueWait(batch []workload.Sample, at float64) {
	if c.st != nil {
		c.st.queueWait(len(batch), batch[0].Arrival, at)
		return
	}
	c.fan().queueWait(len(batch), batch[0].Arrival, at)
}

// Dispatched records a batch enqueued at `at` on a device (an index into
// the cluster) serving the given stage.
func (c *Collector) Dispatched(batch []workload.Sample, at float64, stage, device int) {
	if c.st != nil {
		c.st.dispatched(batch, at, stage, device)
		return
	}
	c.fan().dispatched(batch, at, stage, device)
}

// Executed records a batch that ran layers [from, to] of the named model
// as the given stage on the device registered at index device, starting
// at `start` and taking res.Duration.
func (c *Collector) Executed(device int, model string, stage, from, to int, batch []workload.Sample, start float64, res *exec.Result) {
	end := start + res.Duration
	c.Util.AddBusyAt(c.utilSlots[device], start, res.Duration)
	if c.st != nil {
		c.st.executed(device, model, stage, from, to, batch, start, end, res.RampTime, res.PadTime)
		return
	}
	c.fan().executed(device, model, stage, from, to, batch, start, end, res.RampTime, res.PadTime)
}

// Transferred records n survivors' activations moving from fromStage to
// the next stage over [start, end].
func (c *Collector) Transferred(fromStage, n int, start, end float64) {
	if c.st != nil {
		c.st.span(opTransfer, fromStage, n, start, end)
		return
	}
	c.fan().transferred(fromStage, n, start, end)
}

// Merged records survivors landing in a stage's merge queue at `at`.
func (c *Collector) Merged(survivors []workload.Sample, at float64, stage int) {
	if c.st != nil {
		c.st.merged(survivors, at, stage)
		return
	}
	c.fan().merged(survivors, at, stage)
}

// Fused records a batch of n formed from a stage's merge queue at end,
// whose head had waited there since start.
func (c *Collector) Fused(stage, n int, start, end float64) {
	if c.st != nil {
		c.st.span(opFuse, stage, n, start, end)
		return
	}
	c.fan().fused(stage, n, start, end)
}

// Complete records a sample finishing at virtual time `at` having exited
// after the given layer.
func (c *Collector) Complete(s workload.Sample, at float64, exitLayer int) {
	c.Lat.Observe(at - s.Arrival)
	if exitLayer >= 1 && exitLayer <= c.layers {
		c.exitCounts[exitLayer]++
	}
	if at <= s.Deadline {
		c.Good.ServeOK(1, at)
		c.windowServed++
	} else {
		c.Violations++
		c.Good.Drop(1, at)
		c.windowViolations++
	}
	if c.st != nil {
		c.st.completed(s, at, exitLayer)
		return
	}
	c.fan().completed(s, at, exitLayer)
}

// Drop records a sample shed without execution, classified by reason
// (admission control, stale-backlog shedding, or SLA-pressure flush).
func (c *Collector) Drop(s workload.Sample, at float64, reason audit.Reason) {
	c.Dropped++
	c.Good.Drop(1, at)
	c.windowViolations++
	if c.st != nil {
		c.st.dropped(s, at, reason)
		return
	}
	c.fan().dropped(s, at, reason)
}

// Replan, PlanCacheHit and SLOBurn record control-plane instants of
// scheduling window w at `at` on the tracer.
func (c *Collector) Replan(w int, at float64)       { c.control(opReplan, w, at) }
func (c *Collector) PlanCacheHit(w int, at float64) { c.control(opPlanCacheHit, w, at) }
func (c *Collector) SLOBurn(w int, at float64)      { c.control(opSLOBurn, w, at) }

func (c *Collector) control(op uint64, w int, at float64) {
	if c.st != nil {
		c.st.control(op, w, at)
		return
	}
	c.fan().control(op, w, at)
}

// SnapshotFlame appends a snapshot of the flame profile, as it stands
// after every boundary recorded so far, to FlameWindows. It does nothing
// with no profiler attached.
func (c *Collector) SnapshotFlame() {
	if c.Flame == nil {
		return
	}
	if c.st != nil {
		c.st.snapshot()
		return
	}
	c.fan().snapshot()
}

// FlameWindows returns the snapshots SnapshotFlame took, oldest first.
// While the collector streams, read it only after Close.
func (c *Collector) FlameWindows() []*flame.Profile { return c.flameWindows }

// Close ends the run at `now`: it joins the stream's consumer (if any),
// closes the goodput and flame horizons, verifies the ledger
// (AuditReport), then folds each attached view's own reconcile into that
// report. It returns the report and the flame reconcile outcome (zero
// when no profiler is attached).
func (c *Collector) Close(now float64) (*audit.Report, flame.ReconcileStat) {
	c.Stop()
	c.Good.CloseAt(now)
	c.Flame.CloseAt(now)
	rep := c.AuditReport()
	c.Tracer.Reconcile(rep)
	c.Attr.Reconcile(rep)
	return rep, c.Flame.Reconcile(rep, c.Util)
}

// AuditReport verifies the attached ledger's conservation invariants and
// cross-checks its terminal totals against this collector's counters.
// With no ledger attached it reports only the counter cross-check (which
// fails unless both sides are zero, making a missing ledger loud).
//
// A streaming collector first waits for its consumer to apply every
// boundary recorded so far (Sync).
func (c *Collector) AuditReport() *audit.Report {
	c.Sync()
	r := c.Audit.Verify()
	r.CrossCheck(c.Good.Served+c.Violations, c.Dropped)
	return r
}

// ObservedProfile reconstructs the survival profile from the exit
// histogram — the measurement E3's estimator consumes each window (§3.1).
func (c *Collector) ObservedProfile() profile.Batch {
	total := 0
	for _, n := range c.exitCounts {
		total += n
	}
	surv := make([]float64, c.layers)
	if total == 0 {
		for k := range surv {
			surv[k] = 1
		}
		return profile.NewBatch(surv)
	}
	alive := total
	for k := 1; k <= c.layers; k++ {
		surv[k-1] = float64(alive) / float64(total)
		alive -= c.exitCounts[k]
	}
	return profile.NewBatch(surv)
}

// WindowCounts exposes the current window's served and violation
// counters (drops are already folded into violations) so an external
// budget accountant — the fleet router's per-epoch burn scoring — can
// feed slo.Budget.ObserveWindow without owning the collector.
func (c *Collector) WindowCounts() (served, violations int) {
	return c.windowServed, c.windowViolations
}

// ResetWindow clears the exit histogram and window counters for the next
// scheduling window while keeping cumulative serving metrics.
func (c *Collector) ResetWindow() {
	for i := range c.exitCounts {
		c.exitCounts[i] = 0
	}
	c.windowServed = 0
	c.windowViolations = 0
}
