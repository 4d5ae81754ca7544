// Package flame is the deterministic virtual-time compute profiler: it
// folds the event loop's execution into weighted sample stacks so "where
// did the fleet's GPU-seconds go" has a structural answer instead of a
// single utilization number. Busy time folds as
//
//	gpu:<kind> ; dev:<id> ; model:<name> ; split:<s> ; layers:<a>-<b> ;
//	    {useful | ramp-overhead | pad-waste}
//
// and every gap between batches folds as a bubble with a cause taxonomy
//
//	gpu:<kind> ; dev:<id> ; bubble ; split:<s> ;
//	    {queue-starved | transfer-blocked | fuse-blocked | drained | idle}
//
// fed by the same boundary hooks that drive slo.Attribution (execute,
// transfer, fuse), so the profile cannot drift from the run it describes:
// Reconcile checks the per-device busy totals against
// metrics.UtilizationTracker's busy nanoseconds *exactly* and folds any
// disagreement into the conservation report, like telemetry.Reconcile.
//
// All weights are integer virtual nanoseconds. Every span endpoint is
// rounded once (metrics.Nanos, the utilization tracker's own rule) and
// all arithmetic after that is integer, so totals are associative: the
// same seed produces byte-identical folded output regardless of
// accumulation order, and busy + bubble − overlap − excess == horizon
// holds with zero residual, not "within epsilon".
//
// Like audit.Ledger and telemetry.Tracer, a nil *Profiler is valid and
// records nothing; call sites thread it unconditionally.
package flame

import (
	"sort"
	"strconv"

	"e3/internal/audit"
	"e3/internal/metrics"
	"e3/internal/store"
	"e3/internal/telemetry"
)

// Bubble-cause leaf frames. Interior gaps are classified by what the
// device was waiting for; boundary gaps by where in the run they sit.
const (
	classQueueStarved    = iota // device free, nothing upstream to run
	classTransferBlocked        // survivors in flight toward this stage
	classFuseBlocked            // merge queue holding survivors for re-formation
	classDrained                // after the device's last batch, to end of run
	classIdle                   // before the device's first batch (or never ran)
	numClasses
)

// className maps the class index to its leaf frame.
var className = [numClasses]string{
	"queue-starved", "transfer-blocked", "fuse-blocked", "drained", "idle",
}

// ringSize bounds the per-stage transfer/fuse interval memory used for
// gap classification. Gaps are classified against *recent* activity at
// the same stage, so a small ring is enough; it keeps the profiler O(1)
// memory in run length.
const ringSize = 64

// stageRings holds one stage's ringSize most recent activation transfers
// into it and fusion waits at it, as [start, end) intervals in nanos.
type stageRings struct {
	xfer, fuse store.Ring[[2]int64]
}

// overlaps reports whether any interval r keeps intersects [lo, hi). It
// scans newest first, since a gap most often overlaps the latest activity.
func overlaps(r *store.Ring[[2]int64], lo, hi int64) bool {
	older, newer := r.Slices()
	for _, run := range [2][][2]int64{newer, older} {
		for i := len(run) - 1; i >= 0; i-- {
			if iv := run[i]; iv[0] < hi && iv[1] > lo {
				return true
			}
		}
	}
	return false
}

// Dev is a device handle from Register: an index into the profiler's
// device table, so Execute reaches its device without hashing an ID.
type Dev int32

// devState is one device's streaming fold state.
type devState struct {
	id, kind string
	// frames is the device's escaped "gpu:<kind>;dev:<id>" stack prefix.
	frames string
	// started flips on the first executed batch; before that the device's
	// whole past is a leading idle gap.
	started bool
	// lastEndN is the integer end of device coverage so far (the union
	// cursor): execute spans arrive start-ordered off the event loop, so a
	// single cursor computes the exact span union.
	lastEndN int64
	// Integer totals for the conservation identity
	// busy − overlap − excess + bubble == horizon.
	busyN, overlapN, gapN int64
	// shapes are the execution shapes the device has run; cur indexes the
	// last one run (-1 before the first batch), whose split the trailing
	// drain is attributed to. gaps holds one row of bubble stacks per split
	// the device has served.
	shapes []execShape
	cur    int
	gaps   []gapRow
}

// execShape is one execution shape — model, split and layer range — with
// its interned busy-leaf stacks and the index of its split's gap row.
type execShape struct {
	model             string
	split, from, to   int
	useful, ramp, pad int32
	row               int
}

func (sh *execShape) is(model string, split, from, to int) bool {
	return sh.split == split && sh.from == from && sh.to == to && sh.model == model
}

// gapRow holds a device's interned bubble stack per gap class at one
// split: -1 until a gap of that class first lands there, except drained,
// which is interned with the row because only Profile, which must not
// mutate, folds it.
type gapRow struct {
	split int
	ids   [numClasses]int32
}

// Profiler folds boundary events into weighted stacks. All recording
// happens synchronously on the event loop's goroutine; timestamps are
// virtual, stamped by the caller from the sim clock.
type Profiler struct {
	start  float64
	startN int64
	// horizon tracks the latest event time seen (and any CloseAt), in
	// both domains; the float keeps Profile metadata readable.
	horizon  float64
	horizonN int64

	// devs is the device table Dev handles index; devIdx maps a device ID
	// to its handle and is read by Register only.
	devs   []devState
	devIdx map[string]Dev

	// weights[k] accumulates virtual nanoseconds on interned folded stack
	// names[k]. Boundary gaps (leading idle before the first batch) land
	// here as they are classified; trailing gaps are closed by Profile's
	// pure fold. Stacks are interned when a device first runs a shape;
	// stackIdx dedupes them then and is never read per batch.
	names    []string
	weights  []int64
	stackIdx map[string]int32

	// rings[stages.Slot(s)] holds recent activation transfers *into* stage
	// s and merge-queue fusion waits at s. Both feed gap classification
	// only.
	stages telemetry.StageIndex
	rings  []stageRings
}

// NewProfiler starts a profiler whose horizon opens at virtual time start.
func NewProfiler(start float64) *Profiler {
	return &Profiler{
		start: start, startN: metrics.Nanos(start),
		horizon: start, horizonN: metrics.Nanos(start),
		devIdx:   make(map[string]Dev),
		stackIdx: make(map[string]int32),
	}
}

// Register adds a device to the fold and returns its handle for Execute;
// registering a known ID returns its handle and keeps its first kind. A
// device that never runs a batch still appears, its whole horizon one idle
// bubble, mirroring metrics.UtilizationTracker.Register.
func (p *Profiler) Register(devID, gpuKind string) Dev {
	if p == nil {
		return 0
	}
	if d, ok := p.devIdx[devID]; ok {
		return d
	}
	d := Dev(len(p.devs))
	p.devs = append(p.devs, devState{
		id: devID, kind: gpuKind, frames: "gpu:" + escapeFrame(gpuKind) + ";dev:" + escapeFrame(devID),
		lastEndN: p.startN, cur: -1,
	})
	p.devIdx[devID] = d
	return d
}

func (p *Profiler) extendHorizon(at float64) {
	if at > p.horizon {
		p.horizon = at
		p.horizonN = metrics.Nanos(at)
	}
}

// CloseAt extends the profile horizon to the run's end time (mirroring
// GoodputMeter.CloseAt) so trailing device gaps are measured against the
// full run, not the last busy instant.
func (p *Profiler) CloseAt(at float64) {
	if p == nil {
		return
	}
	p.extendHorizon(at)
}

// Execute folds one executed batch: [start, end] busy on device dev, of which
// ramp seconds were ramp-head overhead and pad seconds were pad-waste
// (samples riding a compiled split past their exit). Any gap since the
// device's previous batch is classified and folded as a bubble. Calls
// must arrive in nondecreasing start order per device — the event loop's
// dispatch order — which lets a single cursor compute the exact busy
// union.
//
//e3:hotpath runs once per executed batch; device, shape and stacks are all dense indices
func (p *Profiler) Execute(dev Dev, model string, split, from, to int, start, end, ramp, pad float64) {
	if p == nil {
		return
	}
	d := &p.devs[dev]
	sh := p.shape(d, model, split, from, to)
	sN, eN := metrics.Nanos(start), metrics.Nanos(end)
	if eN < sN {
		eN = sN
	}
	p.extendHorizon(end)

	// Decompose busy time. The ramp and pad components are rounded
	// independently, so the integer dust (at most a couple of nanoseconds)
	// lands in useful: the three leaves always sum to the span exactly.
	totalN := eN - sN
	rampN, padN := metrics.Nanos(ramp), metrics.Nanos(pad)
	if rampN < 0 {
		rampN = 0
	}
	if padN < 0 {
		padN = 0
	}
	if padN > totalN {
		padN = totalN
	}
	if rampN > totalN-padN {
		rampN = totalN - padN
	}
	usefulN := totalN - rampN - padN

	// Classify the gap (or overlap) against the device's coverage cursor.
	if !d.started {
		d.started = true
		if lead := sN - p.startN; lead > 0 {
			// Leading idle: the device was provisioned before its first
			// batch arrived.
			p.weights[p.gapID(d, sh.row, classIdle)] += lead
			d.gapN += lead
		}
	} else if sN >= d.lastEndN {
		if gap := sN - d.lastEndN; gap > 0 {
			p.weights[p.gapID(d, sh.row, p.classifyGap(split, d.lastEndN, sN))] += gap
			d.gapN += gap
		}
	} else {
		// Overlapping busy spans (the Serial runner credits every batch of
		// a phase at the phase start): account the double-counted time so
		// the conservation identity stays exact.
		ov := eN
		if d.lastEndN < ov {
			ov = d.lastEndN
		}
		d.overlapN += ov - sN
	}
	if eN > d.lastEndN {
		d.lastEndN = eN
	}
	d.busyN += totalN

	if usefulN > 0 {
		p.weights[sh.useful] += usefulN
	}
	if rampN > 0 {
		p.weights[sh.ramp] += rampN
	}
	if padN > 0 {
		p.weights[sh.pad] += padN
	}
}

// shape returns the device's record of an execution shape, interning its
// stacks the first time the device runs it. A device keeps running one
// shape until the plan changes, so the last one run is checked first.
func (p *Profiler) shape(d *devState, model string, split, from, to int) *execShape {
	if d.cur >= 0 && d.shapes[d.cur].is(model, split, from, to) {
		return &d.shapes[d.cur]
	}
	for i := range d.shapes {
		if d.shapes[i].is(model, split, from, to) {
			d.cur = i
			return &d.shapes[i]
		}
	}
	d.cur = len(d.shapes)
	d.shapes = append(d.shapes, p.internShape(d, model, split, from, to))
	return &d.shapes[d.cur]
}

// internShape builds a new shape's folded stacks and interns them.
func (p *Profiler) internShape(d *devState, model string, split, from, to int) execShape {
	sh := execShape{model: model, split: split, from: from, to: to, row: p.gapRow(d, split)}
	// A caller with no model name or layer range omits those frames
	// rather than folding empty ones.
	var modelFrame, layersFrame string
	if model != "" {
		modelFrame = ";model:" + escapeFrame(model) //e3:alloc first sight of a shape on this device
	}
	if from > 0 || to > 0 {
		layersFrame = ";layers:" + strconv.Itoa(from) + "-" + strconv.Itoa(to) //e3:alloc first sight of a shape on this device
	}
	prefix := d.frames + modelFrame + ";split:" + strconv.Itoa(split) + layersFrame //e3:alloc first sight of a shape on this device
	sh.useful = p.intern(prefix + ";useful")                                        //e3:alloc first sight of a shape on this device
	sh.ramp = p.intern(prefix + ";ramp-overhead")                                   //e3:alloc first sight of a shape on this device
	sh.pad = p.intern(prefix + ";pad-waste")                                        //e3:alloc first sight of a shape on this device
	return sh
}

// gapRow returns the index of the device's gap row for split, adding it
// (with its drained stack interned) at first sight.
func (p *Profiler) gapRow(d *devState, split int) int {
	for i := range d.gaps {
		if d.gaps[i].split == split {
			return i
		}
	}
	row := gapRow{split: split}
	for class := range row.ids {
		row.ids[class] = -1
	}
	row.ids[classDrained] = p.intern(gapStack(d, split, classDrained))
	d.gaps = append(d.gaps, row)
	return len(d.gaps) - 1
}

// gapID returns the bubble stack of a gap class in one of the device's
// gap rows, interning it the first time such a gap lands there.
func (p *Profiler) gapID(d *devState, row, class int) int32 {
	r := &d.gaps[row]
	if r.ids[class] < 0 {
		r.ids[class] = p.intern(gapStack(d, r.split, class))
	}
	return r.ids[class]
}

// intern returns the id of a folded stack, adding it at first sight.
func (p *Profiler) intern(stack string) int32 {
	if k, ok := p.stackIdx[stack]; ok {
		return k
	}
	k := int32(len(p.names))
	p.names = append(p.names, stack)
	p.weights = append(p.weights, 0)
	p.stackIdx[stack] = k
	return k
}

// Transfer records an activation transfer *into* toStage over
// [start, end]; gaps at toStage that overlap it classify as
// transfer-blocked.
//
//e3:hotpath runs once per inter-stage transfer; the stage resolves to a dense slot
func (p *Profiler) Transfer(toStage int, start, end float64) {
	if p == nil {
		return
	}
	p.extendHorizon(end)
	p.stageRings(toStage).xfer.Push([2]int64{metrics.Nanos(start), metrics.Nanos(end)})
}

// Fuse records a merge-queue fusion wait at stage over [start, end]; gaps
// at that stage overlapping it classify as fuse-blocked.
//
//e3:hotpath runs once per fused batch; the stage resolves to a dense slot
func (p *Profiler) Fuse(stage int, start, end float64) {
	if p == nil {
		return
	}
	p.extendHorizon(end)
	p.stageRings(stage).fuse.Push([2]int64{metrics.Nanos(start), metrics.Nanos(end)})
}

// stageRings returns a stage's interval rings, adding them at first sight.
func (p *Profiler) stageRings(stage int) *stageRings {
	i := p.stages.Slot(stage)
	if i == len(p.rings) {
		p.rings = append(p.rings, stageRings{xfer: store.NewRing[[2]int64](ringSize), fuse: store.NewRing[[2]int64](ringSize)})
	}
	return &p.rings[i]
}

// classifyGap names the cause of an interior device gap [lo, hi) before a
// batch of the given stage ran. Precedence: an in-flight transfer toward
// the stage beats a fusion wait beats plain queue starvation — the
// upstream-most cause wins.
func (p *Profiler) classifyGap(stage int, lo, hi int64) int {
	i := p.stages.Lookup(stage)
	switch {
	case i < 0:
	case overlaps(&p.rings[i].xfer, lo, hi):
		return classTransferBlocked
	case overlaps(&p.rings[i].fuse, lo, hi):
		return classFuseBlocked
	}
	return classQueueStarved
}

// gapStack names the bubble stack of a gap class at a split. A negative
// split (a device that never ran) omits the split frame.
func gapStack(d *devState, split, class int) string {
	if split < 0 {
		return d.frames + ";bubble;" + className[class] //e3:alloc first gap of its class at a device's split
	}
	return d.frames + ";bubble;split:" + strconv.Itoa(split) + ";" + className[class] //e3:alloc first gap of its class at a device's split
}

// Profile folds the current state into an immutable Profile at the
// profiler's horizon. The fold is pure: trailing gaps (drained devices,
// never-run devices) are closed into the returned profile without
// mutating the profiler, so per-window snapshots and the final profile
// come from the same accumulator.
func (p *Profiler) Profile() *Profile {
	if p == nil {
		return &Profile{Schema: ProfileSchema, Stacks: map[string]int64{}}
	}
	pr := &Profile{
		Schema: ProfileSchema,
		StartS: p.start,
		EndS:   p.horizon,
		Stacks: make(map[string]int64, len(p.weights)+len(p.devs)),
	}
	// Every weight update adds a positive amount, so the stacks above zero
	// are exactly the ones that received weight.
	for k, w := range p.weights {
		if w > 0 {
			pr.Stacks[p.names[k]] = w
		}
	}
	horizonLen := p.horizonN - p.startN
	for _, i := range p.sortedDevs() {
		d := &p.devs[i]
		dt := DeviceTotals{
			ID: d.id, Kind: d.kind,
			BusyNanos:    d.busyN,
			OverlapNanos: d.overlapN,
			BubbleNanos:  d.gapN,
			HorizonNanos: horizonLen,
		}
		switch {
		case !d.started:
			// Never ran: the whole horizon is one idle bubble.
			if horizonLen > 0 {
				pr.Stacks[gapStack(d, -1, classIdle)] += horizonLen
				dt.BubbleNanos += horizonLen
			}
		case d.lastEndN < p.horizonN:
			// Trailing drain: after the device's last batch, to end of run.
			gap := p.horizonN - d.lastEndN
			pr.Stacks[p.names[d.gaps[d.shapes[d.cur].row].ids[classDrained]]] += gap
			dt.BubbleNanos += gap
		case d.lastEndN > p.horizonN:
			// Work past the measurement horizon (possible only when the
			// caller closed the profile early): excess keeps the identity.
			dt.ExcessNanos = d.lastEndN - p.horizonN
		}
		pr.Devices = append(pr.Devices, dt)
		pr.TotalNanos += dt.BusyNanos - dt.OverlapNanos - dt.ExcessNanos + dt.BubbleNanos
	}
	return pr
}

// sortedDevs returns device handles in device-ID order for deterministic
// folds.
func (p *Profiler) sortedDevs() []int {
	out := make([]int, len(p.devs))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool { return p.devs[out[i]].id < p.devs[out[j]].id })
	return out
}

// ReconcileStat is the outcome of checking the profile against the
// utilization ledger: Residual is the total integer disagreement in
// nanoseconds (0 means the profile accounts for every device's busy and
// idle time exactly).
type ReconcileStat struct {
	// Devices is the number of devices cross-checked.
	Devices int `json:"devices"`
	// BusyNanos and BubbleNanos total the profile's two sides.
	BusyNanos   int64 `json:"busy_nanos"`
	BubbleNanos int64 `json:"bubble_nanos"`
	// Residual sums |flame busy − ledger busy| and |conservation identity
	// residual| across devices, plus 1 per device-set mismatch.
	Residual int64 `json:"residual_nanos"`
	// Checked marks that a reconcile ran (a zero stat with Checked=false
	// means no profiler was attached).
	Checked bool `json:"checked"`
}

// OK reports an exact reconcile.
func (s ReconcileStat) OK() bool { return s.Checked && s.Residual == 0 }

// Reconcile cross-checks the fold against the utilization tracker's busy
// time and folds every disagreement into the conservation report, like
// telemetry.Reconcile: per device, the flame busy total must equal the
// tracker's BusyNanos *exactly* (both sides round the same floats once,
// with metrics.Nanos), and busy − overlap − excess + bubble must equal the
// horizon. A profile that cannot account for the run's GPU time exactly
// is a recording bug and the audit must fail on it. It also returns the
// totals and residual. A nil profiler reconciles vacuously.
func (p *Profiler) Reconcile(rep *audit.Report, util *metrics.UtilizationTracker) ReconcileStat {
	if p == nil || rep == nil {
		return ReconcileStat{}
	}
	pr := p.Profile()
	stat := ReconcileStat{Devices: len(pr.Devices), Checked: true}
	seen := make(map[string]bool, len(pr.Devices))
	for _, dt := range pr.Devices {
		seen[dt.ID] = true
		stat.BusyNanos += dt.BusyNanos
		stat.BubbleNanos += dt.BubbleNanos
		if got := dt.BusyNanos - dt.OverlapNanos - dt.ExcessNanos + dt.BubbleNanos; got != dt.HorizonNanos {
			stat.Residual += absInt64(got - dt.HorizonNanos)
			rep.Violate("flame: device %s accounts %dns of a %dns horizon (busy %d - overlap %d - excess %d + bubble %d)",
				dt.ID, got, dt.HorizonNanos, dt.BusyNanos, dt.OverlapNanos, dt.ExcessNanos, dt.BubbleNanos)
		}
		if util != nil {
			if ledger := util.BusyNanos(dt.ID); ledger != dt.BusyNanos {
				stat.Residual += absInt64(dt.BusyNanos - ledger)
				rep.Violate("flame: device %s busy %dns disagrees with utilization ledger %dns",
					dt.ID, dt.BusyNanos, ledger)
			}
		}
	}
	if util != nil {
		for _, name := range util.Resources() {
			if !seen[name] {
				// A ledger resource the profiler never saw counts as one
				// unit of residual so the mismatch is visible.
				stat.Residual++
				rep.Violate("flame: utilization ledger tracks device %s the profiler never saw", name)
			}
		}
	}
	return stat
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
