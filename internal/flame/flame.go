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
// metrics.UtilizationTracker's spans *exactly* and folds any disagreement
// into the conservation report, like telemetry.Reconcile.
//
// All weights are integer virtual nanoseconds. Every span endpoint is
// rounded once (toNanos) and all arithmetic after that is integer, so
// totals are associative: the same seed produces byte-identical folded
// output regardless of accumulation order, and busy + bubble − overlap −
// excess == horizon holds with zero residual, not "within epsilon".
//
// Like audit.Ledger and telemetry.Tracer, a nil *Profiler is valid and
// records nothing; call sites thread it unconditionally.
package flame

import (
	"fmt"
	"math"

	"e3/internal/audit"
	"e3/internal/metrics"
)

// toNanos converts a virtual-seconds timestamp or duration to integer
// virtual nanoseconds. Each float is rounded exactly once at the profiler
// boundary; everything downstream is integer math.
func toNanos(x float64) int64 {
	return int64(math.Round(x * 1e9))
}

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

// ivlRing is a fixed-size ring of [start, end) intervals in nanos.
type ivlRing struct {
	buf  [ringSize][2]int64
	n    int
	next int
}

func (r *ivlRing) push(s, e int64) {
	r.buf[r.next] = [2]int64{s, e}
	r.next = (r.next + 1) % ringSize
	if r.n < ringSize {
		r.n++
	}
}

// overlaps reports whether any retained interval intersects [lo, hi).
func (r *ivlRing) overlaps(lo, hi int64) bool {
	for i := 0; i < r.n; i++ {
		iv := r.buf[i]
		if iv[0] < hi && iv[1] > lo {
			return true
		}
	}
	return false
}

// devState is one device's streaming fold state.
type devState struct {
	id, kind string
	// started flips on the first executed batch; before that the device's
	// whole past is a leading idle gap.
	started bool
	// lastEndN is the integer end of device coverage so far (the union
	// cursor): execute spans arrive start-ordered off the event loop, so a
	// single cursor computes the exact span union.
	lastEndN int64
	// firstSplit/lastSplit attribute boundary gaps (leading idle, trailing
	// drain) to the stage the device was serving.
	firstSplit, lastSplit int
	// Integer totals for the conservation identity
	// busy − overlap − excess + bubble == horizon.
	busyN, overlapN, gapN int64
}

// execKey caches the three busy-leaf folded stacks per execution shape.
type execKey struct {
	dev, model      string
	split, from, to int
}

// execStacks holds the prebuilt folded stacks for one execution shape.
type execStacks struct {
	useful, ramp, pad string
}

// gapKey caches bubble stacks per (device, split, class).
type gapKey struct {
	dev   string
	split int
	class uint8
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

	devs  map[string]*devState
	order []string // device registration order; folds walk it sorted

	// weights accumulates folded-stack → virtual nanoseconds. Boundary
	// gaps (leading idle before the first batch) land here as they are
	// classified; trailing gaps are closed by Profile's pure fold.
	weights map[string]int64

	execCache map[execKey]*execStacks
	gapCache  map[gapKey]string

	// xfer[s] holds recent activation-transfer intervals *into* stage s;
	// fuse[s] holds recent merge-queue fusion waits at stage s. Both feed
	// gap classification only.
	xfer map[int]*ivlRing
	fuse map[int]*ivlRing
}

// NewProfiler starts a profiler whose horizon opens at virtual time start.
func NewProfiler(start float64) *Profiler {
	return &Profiler{
		start: start, startN: toNanos(start),
		horizon: start, horizonN: toNanos(start),
		devs:      make(map[string]*devState),
		weights:   make(map[string]int64),
		execCache: make(map[execKey]*execStacks),
		gapCache:  make(map[gapKey]string),
		xfer:      make(map[int]*ivlRing),
		fuse:      make(map[int]*ivlRing),
	}
}

// Enabled reports whether the profiler records anything.
func (p *Profiler) Enabled() bool { return p != nil }

// Register ensures a device appears in the fold even if it never runs a
// batch (its whole horizon is then an idle bubble), mirroring
// metrics.UtilizationTracker.Register.
func (p *Profiler) Register(devID, gpuKind string) {
	if p == nil {
		return
	}
	p.dev(devID, gpuKind)
}

func (p *Profiler) dev(devID, gpuKind string) *devState {
	d, ok := p.devs[devID]
	if !ok {
		d = &devState{id: devID, kind: gpuKind, lastEndN: p.startN}
		p.devs[devID] = d
		p.order = append(p.order, devID)
	}
	return d
}

func (p *Profiler) extendHorizon(at float64) {
	if at > p.horizon {
		p.horizon = at
		p.horizonN = toNanos(at)
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

// Execute folds one executed batch: [start, end] busy on devID, of which
// ramp seconds were ramp-head overhead and pad seconds were pad-waste
// (samples riding a compiled split past their exit). Any gap since the
// device's previous batch is classified and folded as a bubble. Calls
// must arrive in nondecreasing start order per device — the event loop's
// dispatch order — which lets a single cursor compute the exact busy
// union.
func (p *Profiler) Execute(devID, gpuKind, model string, split, from, to int, start, end, ramp, pad float64) {
	if p == nil {
		return
	}
	d := p.dev(devID, gpuKind)
	sN, eN := toNanos(start), toNanos(end)
	if eN < sN {
		eN = sN
	}
	p.extendHorizon(end)

	// Decompose busy time. The ramp and pad components are rounded
	// independently, so the integer dust (at most a couple of nanoseconds)
	// lands in useful: the three leaves always sum to the span exactly.
	totalN := eN - sN
	rampN, padN := toNanos(ramp), toNanos(pad)
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
		d.firstSplit, d.lastSplit = split, split
		if lead := sN - p.startN; lead > 0 {
			// Leading idle: the device was provisioned before its first
			// batch arrived.
			p.weights[p.gapStack(d, split, classIdle)] += lead
			d.gapN += lead
		}
	} else if sN >= d.lastEndN {
		if gap := sN - d.lastEndN; gap > 0 {
			class := p.classifyGap(split, d.lastEndN, sN)
			p.weights[p.gapStack(d, split, class)] += gap
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
	d.lastSplit = split
	d.busyN += totalN

	st := p.execStacks(d, model, split, from, to)
	if usefulN > 0 {
		p.weights[st.useful] += usefulN
	}
	if rampN > 0 {
		p.weights[st.ramp] += rampN
	}
	if padN > 0 {
		p.weights[st.pad] += padN
	}
}

// Transfer records an activation transfer *into* toStage over
// [start, end]; gaps at toStage that overlap it classify as
// transfer-blocked.
func (p *Profiler) Transfer(toStage int, start, end float64) {
	if p == nil {
		return
	}
	p.extendHorizon(end)
	r := p.xfer[toStage]
	if r == nil {
		r = &ivlRing{}
		p.xfer[toStage] = r
	}
	r.push(toNanos(start), toNanos(end))
}

// Fuse records a merge-queue fusion wait at stage over [start, end]; gaps
// at that stage overlapping it classify as fuse-blocked.
func (p *Profiler) Fuse(stage int, start, end float64) {
	if p == nil {
		return
	}
	p.extendHorizon(end)
	r := p.fuse[stage]
	if r == nil {
		r = &ivlRing{}
		p.fuse[stage] = r
	}
	r.push(toNanos(start), toNanos(end))
}

// classifyGap names the cause of an interior device gap [lo, hi) before a
// batch of the given stage ran. Precedence: an in-flight transfer toward
// the stage beats a fusion wait beats plain queue starvation — the
// upstream-most cause wins.
func (p *Profiler) classifyGap(stage int, lo, hi int64) int {
	if r := p.xfer[stage]; r != nil && r.overlaps(lo, hi) {
		return classTransferBlocked
	}
	if r := p.fuse[stage]; r != nil && r.overlaps(lo, hi) {
		return classFuseBlocked
	}
	return classQueueStarved
}

// execStacks returns the cached busy-leaf stacks for one execution shape.
func (p *Profiler) execStacks(d *devState, model string, split, from, to int) *execStacks {
	k := execKey{dev: d.id, model: model, split: split, from: from, to: to}
	st, ok := p.execCache[k]
	if !ok {
		prefix := fmt.Sprintf("gpu:%s;dev:%s", escapeFrame(d.kind), escapeFrame(d.id))
		if model != "" {
			// Span-replayed profiles (FromSpans) carry no model name and
			// omit the frame rather than folding an empty one.
			prefix += ";model:" + escapeFrame(model)
		}
		prefix += fmt.Sprintf(";split:%d", split)
		if from > 0 || to > 0 {
			prefix += fmt.Sprintf(";layers:%d-%d", from, to)
		}
		st = &execStacks{
			useful: prefix + ";useful",
			ramp:   prefix + ";ramp-overhead",
			pad:    prefix + ";pad-waste",
		}
		p.execCache[k] = st
	}
	return st
}

// gapStack returns the cached bubble stack for (device, split, class).
// A negative split (a device that never ran) omits the split frame.
func (p *Profiler) gapStack(d *devState, split, class int) string {
	k := gapKey{dev: d.id, split: split, class: uint8(class)}
	s, ok := p.gapCache[k]
	if !ok {
		if split < 0 {
			s = fmt.Sprintf("gpu:%s;dev:%s;bubble;%s",
				escapeFrame(d.kind), escapeFrame(d.id), className[class])
		} else {
			s = fmt.Sprintf("gpu:%s;dev:%s;bubble;split:%d;%s",
				escapeFrame(d.kind), escapeFrame(d.id), split, className[class])
		}
		p.gapCache[k] = s
	}
	return s
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
	// Same-key map copy: order-independent.
	for k, v := range p.weights {
		pr.Stacks[k] = v
	}
	horizonLen := p.horizonN - p.startN
	for _, id := range p.sortedDevs() {
		d := p.devs[id]
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
				pr.Stacks[p.gapStack(d, -1, classIdle)] += horizonLen
				dt.BubbleNanos += horizonLen
			}
		case d.lastEndN < p.horizonN:
			// Trailing drain: after the device's last batch, to end of run.
			gap := p.horizonN - d.lastEndN
			pr.Stacks[p.gapStack(d, d.lastSplit, classDrained)] += gap
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

// sortedDevs returns device IDs in sorted order for deterministic folds.
func (p *Profiler) sortedDevs() []string {
	out := append([]string(nil), p.order...)
	sortStrings(out)
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
// spans and folds every disagreement into the conservation report, like
// telemetry.Reconcile: per device, the flame busy total must equal the
// span sum in integer nanoseconds *exactly* (both sides round the same
// floats once), and busy − overlap − excess + bubble must equal the
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
			ledger := int64(0)
			for _, sp := range util.BusySpans(dt.ID) {
				ledger += toNanos(sp[1]) - toNanos(sp[0])
			}
			if ledger != dt.BusyNanos {
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
