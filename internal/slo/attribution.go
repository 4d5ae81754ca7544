// Package slo is the request-granularity attribution and SLO-accounting
// layer on top of the span tracer and the lifecycle ledger: it folds the
// same boundary events the tracer and ledger already see into (a) a
// per-request critical-path breakdown whose components provably sum to the
// end-to-end latency, (b) per-window error-budget accounting (attainment,
// burn rate, time-to-exhaustion), and (c) a black-box flight recorder that
// snapshots recent spans, plan diffs, forecast stats, and ledger totals
// into one diagnostic bundle when something goes wrong.
//
// Everything here obeys the simulator's invariants: timestamps are virtual
// (stamped by callers from the sim clock), recording is synchronous on the
// event loop's goroutine, map walks that produce output are sorted, and —
// like audit.Ledger and telemetry.Tracer — a nil *Attribution, *Budget, or
// *Recorder is valid and records nothing, so call sites thread the hooks
// unconditionally and pay nothing when the layer is off.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"e3/internal/audit"
	"e3/internal/store"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// Component classifies one segment of a request's critical path. The six
// components partition the interval [arrival, completion] exactly: each
// breakdown's parts are contiguous by construction, so their durations sum
// to the end-to-end latency up to float rounding (SumTolerance).
type Component uint8

const (
	// CompQueueWait is arrival → first dispatch (the dynamic batcher's
	// queue, including admission).
	CompQueueWait Component = iota
	// CompBacklog is dispatch → execution start: time spent queued behind
	// other batches on the chosen instance.
	CompBacklog
	// CompCompute is execution on one split (truncated at the completion
	// instant for early exits that finish before their batch does).
	CompCompute
	// CompTransfer is compute end → merge-queue entry at the next stage
	// (handoff plus inter-split activation transfer).
	CompTransfer
	// CompFuse is merge-queue entry → next dispatch: waiting for the
	// survivor batch to be re-formed (serial runners account their
	// phase-barrier and re-batch wait here too).
	CompFuse
	// CompCollector is the final compute end → completion delivery
	// (handoff of the exit result).
	CompCollector

	// NumComponents bounds the enum for aggregate arrays.
	NumComponents
)

// String names the component; it doubles as the JSON encoding.
func (c Component) String() string {
	switch c {
	case CompQueueWait:
		return "queue-wait"
	case CompBacklog:
		return "backlog"
	case CompCompute:
		return "compute"
	case CompTransfer:
		return "transfer"
	case CompFuse:
		return "fuse"
	case CompCollector:
		return "collector"
	}
	return fmt.Sprintf("component(%d)", c)
}

// ComponentFromString inverts String (for attribution-dump import).
func ComponentFromString(s string) (Component, bool) {
	switch s {
	case "queue-wait":
		return CompQueueWait, true
	case "backlog":
		return CompBacklog, true
	case "compute":
		return CompCompute, true
	case "transfer":
		return CompTransfer, true
	case "fuse":
		return CompFuse, true
	case "collector":
		return CompCollector, true
	}
	return 0, false
}

// MarshalJSON encodes the component as its name.
func (c Component) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a component name.
func (c *Component) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := ComponentFromString(s)
	if !ok {
		return fmt.Errorf("slo: unknown component %q", s)
	}
	*c = v
	return nil
}

// Part is one contiguous segment of a request's critical path, in virtual
// seconds.
type Part struct {
	Comp Component `json:"component"`
	// Stage is the split index the segment belongs to (-1 for the
	// batcher's queue wait).
	Stage int     `json:"stage"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// Breakdown is one completed request's full critical-path attribution.
type Breakdown struct {
	ID         int64   `json:"id"`
	Arrival    float64 `json:"arrival_s"`
	Completion float64 `json:"completion_s"`
	Parts      []Part  `json:"parts"`
}

// E2E is the request's end-to-end latency.
func (b Breakdown) E2E() float64 { return b.Completion - b.Arrival }

// Sum adds the parts' durations — equal to E2E up to SumTolerance for
// every breakdown the attribution accepted.
func (b Breakdown) Sum() float64 {
	s := 0.0
	for _, p := range b.Parts {
		s += p.End - p.Start
	}
	return s
}

// Component returns the total time attributed to one component.
func (b Breakdown) Component(c Component) float64 {
	s := 0.0
	for _, p := range b.Parts {
		if p.Comp == c {
			s += p.End - p.Start
		}
	}
	return s
}

// SumTolerance bounds |Σ parts − end-to-end| per request. The parts are
// contiguous by construction (each starts exactly where its predecessor
// ended), so the only slack is the rounding of summing a handful of
// float64 durations — orders of magnitude below this bound at any
// realistic virtual-time scale.
const SumTolerance = 1e-9

// DefaultTopK is the number of slowest-request breakdowns retained.
const DefaultTopK = 16

// maxAttrErrs caps retained mismatch messages, mirroring the audit
// report's violation cap.
const maxAttrErrs = 8

// attrRingInit is the initial size of the id → slot ring (a power of two).
const attrRingInit = 1024

// reqState tracks one in-flight request between boundary events. Records
// live in a slot table and are reused: a slot's parts buffer keeps its
// capacity from one request to the next.
type reqState struct {
	id      int64
	arrival float64
	// prevAt is the end of the last attributed part — the next part's
	// exact start, which is what makes breakdowns contiguous by
	// construction.
	prevAt float64
	// execEnd is the pending batch-compute end awaiting the next boundary
	// event (haveExec). executed marks that any compute part exists, which
	// distinguishes a queue-wait gap from a fuse gap at dispatch.
	execEnd  float64
	haveExec bool
	executed bool
	stage    int
	parts    []Part
}

// Attribution folds per-request boundary events into critical-path
// breakdowns. It is fed by the batcher, the runners, and the collector at
// the same emitter sites that feed the ledger and the tracer; it is not
// safe for concurrent use (event-loop goroutine only).
type Attribution struct {
	// topK bounds the retained slowest-request breakdowns.
	topK int

	// states is the slot table of request records, and ids maps each
	// open request's id to its slot; both grow with the requests in
	// flight, never with run length.
	states store.Slots[reqState]
	ids    store.IDRing

	// completed/dropped are population-exact O(1) counters over every
	// terminal event; attributed counts the breakdowns finalized in
	// detail.
	completed, dropped, attributed uint64

	mismatches  int
	errs        []string
	maxResidual float64

	compTotal [NumComponents]float64
	compCount [NumComponents]uint64
	// compute[stages.Slot(s)] accumulates CompCompute for split s.
	stages  telemetry.StageIndex
	compute []stageCompute

	// slowest holds the top-K breakdowns ordered ascending by end-to-end
	// latency (ties broken by ID so retention is deterministic).
	slowest []Breakdown
}

// NewAttribution builds an attribution retaining the topK
// slowest breakdowns (≤0 takes DefaultTopK).
func NewAttribution(topK int) *Attribution {
	if topK <= 0 {
		topK = DefaultTopK
	}
	return &Attribution{topK: topK, ids: store.NewIDRing(attrRingInit)}
}

// stageCompute is one split's running compute total.
type stageCompute struct {
	total float64
	count uint64
}

// lookup returns id's open record, or nil.
func (a *Attribution) lookup(id int64) *reqState {
	if slot, ok := a.ids.Get(id); ok {
		if st := a.states.At(slot); st.id == id {
			return st
		}
	}
	return nil
}

// idOf returns the id of the request open in slot.
func (a *Attribution) idOf(slot int32) int64 { return a.states.At(slot).id }

// state returns s's open record, opening one anchored at its arrival.
func (a *Attribution) state(s workload.Sample) *reqState {
	if st := a.lookup(s.ID); st != nil {
		return st
	}
	slot, st := a.states.Open()
	a.ids.Put(s.ID, slot, a.idOf)
	st.id, st.arrival, st.prevAt = s.ID, s.Arrival, s.Arrival
	st.haveExec, st.executed = false, false
	st.stage = -1
	st.parts = st.parts[:0]
	return st
}

// release closes st's record and returns its slot to the free list.
func (a *Attribution) release(st *reqState) {
	a.states.Free(a.ids.Remove(st.id))
}

// part closes the segment [st.prevAt, end] under component c. Zero-width
// segments are elided (contiguity is preserved because prevAt does not
// move); an end before prevAt is clamped, mirroring the tracer's
// End < Start clamp for float jitter at scheduling boundaries.
func (a *Attribution) part(st *reqState, c Component, stage int, end float64) {
	if end <= st.prevAt {
		return
	}
	st.parts = append(st.parts, Part{Comp: c, Stage: stage, Start: st.prevAt, End: end})
	st.prevAt = end
}

// resolve advances the request to boundary time at: a pending batch
// compute is closed first (truncated at the boundary for early exits that
// complete before their batch does), then the remaining gap is attributed
// to the boundary's component.
func (a *Attribution) resolve(st *reqState, at float64, gap Component, gapStage int) {
	if st.haveExec {
		end := st.execEnd
		if at < end {
			end = at
		}
		a.part(st, CompCompute, st.stage, end)
		st.haveExec = false
	}
	a.part(st, gap, gapStage, at)
}

// Queued opens the request's attribution record at batcher admission. The
// queue-wait clock runs from the sample's arrival, which is also when the
// batcher admits it.
//
//e3:hotpath runs once per admitted request; the slot table never hashes an id
func (a *Attribution) Queued(s workload.Sample, at float64) {
	if a == nil {
		return
	}
	a.state(s)
	_ = at // admission time == arrival; the record anchors at s.Arrival
}

// Dispatched records hand-off to a runner stage. The gap since the last
// boundary is queue wait before the first execution and fusion (re-batch)
// wait afterwards. Requests ingested without a batcher (closed-loop
// drivers) lazily open here, anchored at their arrival.
//
//e3:hotpath runs once per request per stage; the slot table never hashes an id
func (a *Attribution) Dispatched(s workload.Sample, at float64, stage int) {
	if a == nil {
		return
	}
	st := a.state(s)
	if st.executed {
		a.resolve(st, at, CompFuse, stage)
	} else {
		a.resolve(st, at, CompQueueWait, -1)
	}
}

// Executed records one batch running stage over [start, end] and charges
// each tracked member's dispatch → start gap to instance backlog. The
// compute part itself stays pending until the sample's next boundary
// event, because early exits can complete before the batch does.
//
//e3:hotpath runs once per executed batch; the slot table never hashes an id
func (a *Attribution) Executed(stage int, batch []workload.Sample, start, end float64) {
	if a == nil {
		return
	}
	for i := range batch {
		st := a.lookup(batch[i].ID)
		if st == nil {
			continue
		}
		a.resolve(st, start, CompBacklog, stage)
		st.haveExec, st.executed = true, true
		st.stage = stage
		st.execEnd = end
	}
}

// Merged records entry into stage's survivor merge queue; the gap since
// compute end is the handoff plus inter-split transfer.
//
//e3:hotpath runs once per survivor per stage; the slot table never hashes an id
func (a *Attribution) Merged(s workload.Sample, at float64, stage int) {
	if a == nil {
		return
	}
	st := a.lookup(s.ID)
	if st == nil {
		return
	}
	_ = stage // the transfer is attributed to the stage that computed it
	a.resolve(st, at, CompTransfer, st.stage)
}

// Completed finalizes the request's breakdown at its completion time and
// verifies that the parts partition [arrival, completion] exactly.
//
//e3:hotpath runs once per completed request; the slot table never hashes an id
func (a *Attribution) Completed(s workload.Sample, at float64) {
	if a == nil {
		return
	}
	a.completed++
	st := a.lookup(s.ID)
	if st == nil {
		a.flag("request %d: completed with no open attribution record", s.ID) //e3:alloc mismatch report, reached only on a recording bug
		return
	}
	a.resolve(st, at, CompCollector, st.stage)
	a.finalize(st, at)
}

// Dropped closes the request's record without a breakdown: attribution
// explains completed-request latency, and the ledger already classifies
// drops by reason.
//
//e3:hotpath runs once per shed request; the slot table never hashes an id
func (a *Attribution) Dropped(s workload.Sample, at float64) {
	if a == nil {
		return
	}
	a.dropped++
	if st := a.lookup(s.ID); st != nil {
		a.release(st)
	}
}

func (a *Attribution) flag(format string, args ...any) {
	a.mismatches++
	if len(a.errs) < maxAttrErrs {
		a.errs = append(a.errs, fmt.Sprintf(format, args...)) //e3:alloc at most maxAttrErrs messages, reached only on a recording bug
	}
}

// finalize checks the completed breakdown's structural invariants —
// anchored at arrival, contiguous, non-negative, ending at completion,
// summing to the end-to-end latency — then folds it into the aggregates
// and the top-K retention.
func (a *Attribution) finalize(st *reqState, at float64) {
	e2e := at - st.arrival
	sum := 0.0
	prev := st.arrival
	ok := true
	for _, p := range st.parts {
		if p.Start != prev || p.End < p.Start {
			ok = false
		}
		prev = p.End
		sum += p.End - p.Start
	}
	// Boundary values are copied, never recomputed, so these are exact
	// float equalities: a failure is a sequencing bug, not rounding.
	if prev != at && len(st.parts) > 0 {
		ok = false
	}
	residual := math.Abs(sum - e2e)
	if residual > SumTolerance {
		ok = false
	}
	if residual > a.maxResidual {
		a.maxResidual = residual
	}
	if !ok {
		a.flag("request %d: breakdown does not partition [%v, %v]: %d part(s) summing to %v (end-to-end %v)", //e3:alloc mismatch report, reached only on a recording bug
			st.id, st.arrival, at, len(st.parts), sum, e2e)
		a.release(st)
		return
	}
	for _, p := range st.parts {
		d := p.End - p.Start
		a.compTotal[p.Comp] += d
		a.compCount[p.Comp]++
		if p.Comp == CompCompute {
			i := a.stages.Slot(p.Stage)
			if i == len(a.compute) {
				a.compute = append(a.compute, stageCompute{})
			}
			a.compute[i].total += d
			a.compute[i].count++
		}
	}
	a.attributed++
	a.offerSlowest(st, at)
	a.release(st)
}

// slowestLess orders retained breakdowns ascending by end-to-end latency;
// equal latencies keep the smaller ID, so retention is deterministic.
func slowestLess(x, y Breakdown) bool { return fasterThan(x.E2E(), x.ID, y.E2E(), y.ID) }

// fasterThan is slowestLess on a breakdown's end-to-end latency and ID.
func fasterThan(xE2E float64, xID int64, yE2E float64, yID int64) bool {
	if xE2E != yE2E {
		return xE2E < yE2E
	}
	return xID > yID
}

// offerSlowest admits the breakdown into the top-K retention when it beats
// the current minimum. A full retention is tested on the end-to-end
// latency alone, so a breakdown is built, and its parts copied, only on
// admission: in steady state most completions allocate nothing here.
func (a *Attribution) offerSlowest(st *reqState, at float64) {
	if len(a.slowest) >= a.topK {
		if m := &a.slowest[0]; !fasterThan(m.E2E(), m.ID, at-st.arrival, st.id) {
			return
		}
	}
	bd := Breakdown{ID: st.id, Arrival: st.arrival, Completion: at}
	bd.Parts = append([]Part(nil), st.parts...)                                                  //e3:alloc top-K admission: only a breakdown slower than the retained minimum
	i := sort.Search(len(a.slowest), func(i int) bool { return !slowestLess(a.slowest[i], bd) }) //e3:alloc top-K admission: only a breakdown slower than the retained minimum
	a.slowest = append(a.slowest, Breakdown{})
	copy(a.slowest[i+1:], a.slowest[i:])
	a.slowest[i] = bd
	if len(a.slowest) > a.topK {
		copy(a.slowest, a.slowest[1:])
		a.slowest = a.slowest[:a.topK]
	}
}

// Completed-/Dropped-style accessors. All are nil-safe.

// Counts reports the population-exact terminal counters and the number of
// breakdowns attributed in detail.
func (a *Attribution) Counts() (completed, dropped, attributed uint64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.completed, a.dropped, a.attributed
}

// Mismatches reports breakdowns that failed a structural or sum check.
func (a *Attribution) Mismatches() int {
	if a == nil {
		return 0
	}
	return a.mismatches
}

// MaxResidual reports the worst |Σ parts − end-to-end| seen (seconds).
func (a *Attribution) MaxResidual() float64 {
	if a == nil {
		return 0
	}
	return a.maxResidual
}

// Open reports requests whose records are still in flight.
func (a *Attribution) Open() int {
	if a == nil {
		return 0
	}
	return a.states.InUse()
}

// Slowest returns the retained top-K breakdowns, slowest first (a copy).
func (a *Attribution) Slowest() []Breakdown {
	if a == nil {
		return nil
	}
	out := make([]Breakdown, len(a.slowest))
	for i := range a.slowest {
		out[len(a.slowest)-1-i] = a.slowest[i]
	}
	return out
}

// Reconcile cross-checks the attribution against a verified audit report,
// folding any disagreement into the report's violations the same way
// telemetry.Reconcile does: a breakdown that fails to sum, a record left
// open at end of run, or terminal counts that disagree with the ledger
// are recording bugs, and -audit must fail on them. A nil attribution
// reconciles vacuously.
func (a *Attribution) Reconcile(rep *audit.Report) {
	if a == nil || rep == nil {
		return
	}
	for _, msg := range a.errs {
		rep.Violate("slo: %s", msg)
	}
	if extra := a.mismatches - len(a.errs); extra > 0 {
		rep.Violate("slo: ... and %d more attribution mismatch(es)", extra)
	}
	if a.states.InUse() > 0 {
		rep.Violate("slo: %d request(s) still open after end of run", a.states.InUse())
	}
	if int(a.completed) != rep.Completed {
		rep.Violate("slo: %d completion events, ledger completed %d", a.completed, rep.Completed)
	}
	if int(a.dropped) != rep.Dropped {
		rep.Violate("slo: %d drop events, ledger dropped %d", a.dropped, rep.Dropped)
	}
	if a.mismatches == 0 {
		if want := a.completed - a.attributed; want != 0 {
			rep.Violate("slo: %d completion(s) not attributed", want)
		}
	}
}

// ComponentAgg is one component's aggregate over all finalized breakdowns.
type ComponentAgg struct {
	Component string  `json:"component"`
	Count     uint64  `json:"count"`
	TotalS    float64 `json:"total_s"`
}

// StageCompute is one split's aggregate compute attribution.
type StageCompute struct {
	Stage  int     `json:"stage"`
	Count  uint64  `json:"count"`
	TotalS float64 `json:"total_s"`
}

// Dump is the attribution's exportable summary — what `e3-bench -attr-out`
// writes and `e3-trace -attribute` renders.
type Dump struct {
	Completed   uint64  `json:"completed"`
	Dropped     uint64  `json:"dropped"`
	Attributed  uint64  `json:"attributed"`
	Mismatches  int     `json:"mismatches"`
	MaxResidual float64 `json:"max_residual_s"`

	Components     []ComponentAgg `json:"components"`
	ComputeByStage []StageCompute `json:"compute_by_stage"`
	// Slowest lists the retained top-K breakdowns, slowest first.
	Slowest []Breakdown `json:"slowest"`
}

// Dump snapshots the attribution. Stages are listed in ascending order, so
// two identical runs marshal to identical bytes.
func (a *Attribution) Dump() *Dump {
	d := &Dump{}
	if a == nil {
		return d
	}
	d.Completed, d.Dropped, d.Attributed = a.completed, a.dropped, a.attributed
	d.Mismatches = a.mismatches
	d.MaxResidual = a.maxResidual
	for c := Component(0); c < NumComponents; c++ {
		d.Components = append(d.Components, ComponentAgg{
			Component: c.String(), Count: a.compCount[c], TotalS: a.compTotal[c],
		})
	}
	for _, i := range a.stages.Sorted() {
		d.ComputeByStage = append(d.ComputeByStage, StageCompute{
			Stage: a.stages.Stage(i), Count: a.compute[i].count, TotalS: a.compute[i].total,
		})
	}
	d.Slowest = a.Slowest()
	return d
}
