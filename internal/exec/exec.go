// Package exec runs batches of samples through contiguous layer segments
// of an (early-exit) model on a simulated GPU. It is the shared execution
// substrate: the vanilla and naive-EE baselines run the whole model as one
// segment; E3's scheduler runs each split as a segment and merges the
// survivors.
//
// Time accounting per layer k with a currently-active batch b:
//
//	layer compute   spec.LayerTime(flops_k, b)
//	ramp check      spec.LayerTime(rampFLOPs, b) + 2·launch   (if enabled)
//	batch reform    ReformOverhead                            (if exits occurred)
//
// Samples that exit at a ramp complete at that instant; if the active batch
// drains to zero the remaining layers are skipped entirely (the batch-1
// win of EE models).
package exec

import (
	"fmt"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/workload"
)

// Overhead constants, calibrated to DeeBERT-style PyTorch serving.
const (
	// SyncBase is the fixed cost of one exit check's device-host
	// synchronization: the GPU pipeline drains while logits cross PCIe and
	// the host evaluates the exit criterion. Single-sample streams skip it
	// (no batch bookkeeping; frameworks fuse the check into decode).
	SyncBase = 500e-6
	// SyncPerSample is the host-side per-sample share of an exit check
	// (entropy evaluation, index bookkeeping in framework-speed host code).
	SyncPerSample = 60e-6
	// ReformOverhead is the fixed host-side cost of compacting a batch
	// after some samples exited (gather launch + bookkeeping).
	ReformOverhead = 150e-6
	// ReformPerSample is the per-survivor activation gather cost.
	ReformPerSample = 20e-6
)

// rampCheckTime is the full cost of evaluating one ramp over an active
// batch in eager mode: the ramp head kernels plus the synchronization
// stall. Batch 1 skips the stall — a single-sample stream needs no batch
// bookkeeping.
func rampCheckTime(spec gpu.Spec, rampFLOPs float64, active int) float64 {
	t := rampHeadTime(spec, rampFLOPs, active)
	if active > 1 {
		t += SyncBase + float64(active)*SyncPerSample
	}
	return t
}

// rampHeadTime is the ramp head's kernels over a batch, without any
// synchronization: what a split's inline ramp costs.
func rampHeadTime(spec gpu.Spec, rampFLOPs float64, batch int) float64 {
	return spec.LayerTime(rampFLOPs, batch) + 2*spec.LaunchOverhead
}

// Completion records one sample finishing, Offset seconds after the
// segment started.
type Completion struct {
	Sample workload.Sample
	Offset float64
	// ExitLayer is the 1-based layer after which the sample left.
	ExitLayer int
}

// Result summarizes one segment execution.
type Result struct {
	// Duration is the total busy time of the device for this batch.
	Duration float64
	// HandoffDelay is host-side work (boundary sync, batch reform) that
	// happens after the device frees: E3's pipelining overlaps it with the
	// next batch, so it delays survivors and completions but not the
	// device (RunSplit only; zero for eager segments).
	HandoffDelay float64
	// Completions lists samples that finished inside this segment.
	Completions []Completion
	// Survivors continue to the next segment (empty if the segment ends
	// at the final layer).
	Survivors []workload.Sample
	// UsefulFLOPs is the model compute performed (excludes ramp checks),
	// for utilization accounting.
	UsefulFLOPs float64
	// RampTime is the share of Duration spent on early-exit machinery:
	// ramp-head kernels, exit-check synchronization, batch reforms.
	RampTime float64
	// PadTime is the share of Duration attributable to samples riding a
	// compiled split past their exit layer (E3's padding waste): each
	// layer's compute is charged pro rata to the samples whose exit point
	// already passed. It is a counterfactual attribution — Duration itself
	// is unchanged by it.
	PadTime float64

	// padHist is reusable scratch for the pad attribution: exit counts per
	// layer offset within the split (see runSplit).
	padHist []int
	// row is reusable scratch for terms computed on the fly (RunSplitInto,
	// and SplitTable batches larger than the table).
	row splitRow
}

// RunSegment executes layers [from, to] (1-based, inclusive) of m over the
// batch on the given GPU spec, with a straggler slowdown factor (1 =
// healthy). It panics on malformed segment bounds — those are planner bugs.
func RunSegment(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64) Result {
	L := m.Base.NumLayers()
	if from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad segment [%d,%d] for %d-layer model", from, to, L))
	}
	if slowdown < 1 {
		slowdown = 1
	}

	var res Result
	if len(batch) == 0 {
		return res
	}

	// Partition samples by exit layer once.
	exitAt := make([]int, len(batch))
	for i, s := range batch {
		exitAt[i] = m.ExitLayerFor(s.Difficulty)
		if exitAt[i] < from {
			// Defensive: a sample routed past its exit point completes
			// immediately (upstream should have removed it).
			res.Completions = append(res.Completions, Completion{Sample: s, Offset: 0, ExitLayer: exitAt[i]})
			exitAt[i] = -1
		}
	}

	t := 0.0
	active := 0
	for _, e := range exitAt {
		if e >= from {
			active++
		}
	}
	rampFLOPs := m.RampFLOPs()

	for k := from; k <= to && active > 0; k++ {
		layer := m.Base.Layers[k-1]
		t += spec.LayerTimeW(layer.FLOPs, layer.WeightBytes, active) * slowdown
		res.UsefulFLOPs += layer.FLOPs * float64(active)

		checkHere := m.HasRampAfter(k) || k == L
		if !checkHere {
			continue
		}
		t += rampCheckTime(spec, rampFLOPs, active) * slowdown
		res.RampTime += rampCheckTime(spec, rampFLOPs, active) * slowdown

		exited := 0
		for i, e := range exitAt {
			if e == k || (k == L && e >= from) {
				res.Completions = append(res.Completions, Completion{Sample: batch[i], Offset: t, ExitLayer: e})
				exitAt[i] = -1
				exited++
			}
		}
		active -= exited
		if exited > 0 && active > 0 && k < to {
			t += (ReformOverhead + float64(active)*ReformPerSample) * slowdown
			res.RampTime += (ReformOverhead + float64(active)*ReformPerSample) * slowdown
		}
	}

	if to < L {
		for i, e := range exitAt {
			if e >= from {
				res.Survivors = append(res.Survivors, batch[i])
				_ = e
			}
		}
	}
	res.Duration = t
	return res
}

// RunSplit executes layers [from, to] the way E3 runs a split: as one
// compiled graph over a *constant* batch. Ramp heads inside the split run
// inline as cheap GPU kernels (no host sync); exit decisions are applied
// once, at the split boundary, where a single sync and batch reform
// happens. Samples whose exit ramp lies inside the split therefore ride
// along to the boundary — E3's compute saving comes from not forwarding
// them to the next split, not from shrinking mid-split.
func RunSplit(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64) Result {
	var res Result
	RunSplitInto(m, from, to, batch, spec, slowdown, &res)
	return res
}

// RunSplitInto is RunSplit writing into a caller-owned Result whose
// Completions/Survivors backing arrays are reused across calls — the hot
// path runs one split per dispatched batch, so recycling the two slices
// removes the dominant steady-state allocation. Scalar fields are reset
// and the slices truncated to length zero (capacity kept); the caller must
// treat any previous contents of res as dead. It computes the split's
// per-layer terms on the fly; a SplitTable reads them precompiled.
//
//e3:hotpath runs one split per dispatched batch; recycled Result slices are the point
func RunSplitInto(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64, res *Result) {
	checkSplit(m, from, to)
	runSplit(m, from, to, batch, res.scratchRow(m, from, to, spec, len(batch)), slowdown, res)
}

// checkSplit panics on malformed split bounds — those are planner bugs.
func checkSplit(m *ee.EEModel, from, to int) {
	if L := m.Base.NumLayers(); from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad split [%d,%d] for %d-layer model", from, to, L))
	}
}

// splitRow is a split's execution terms at one batch size b, before the
// device's slowdown is applied.
type splitRow struct {
	// layer[i] is layer from+i's compute time over b samples; ramp[i] the
	// inline ramp head after it, 0 where the layer carries none.
	layer, ramp []float64
	// useful is the split's model compute over b samples, summed in layer
	// order.
	useful float64
}

// fillRow computes the split's terms at batch b into row, whose slices
// must have length to-from+1. The table build and the on-the-fly path both
// use it, so their terms are the same values.
func fillRow(m *ee.EEModel, from, to int, spec gpu.Spec, b int, row *splitRow) {
	L := m.Base.NumLayers()
	head := rampHeadTime(spec, m.RampFLOPs(), b)
	row.useful = 0
	for k := from; k <= to; k++ {
		l := m.Base.Layers[k-1]
		row.layer[k-from] = spec.LayerTimeW(l.FLOPs, l.WeightBytes, b)
		row.useful += l.FLOPs * float64(b)
		row.ramp[k-from] = 0
		if m.HasRampAfter(k) || k == L {
			row.ramp[k-from] = head
		}
	}
}

// scratchRow fills res's scratch row with the split's terms at batch b.
func (res *Result) scratchRow(m *ee.EEModel, from, to int, spec gpu.Spec, b int) *splitRow {
	n := to - from + 1
	if cap(res.row.layer) < n {
		terms := make([]float64, 2*n) //e3:alloc one-time scratch grow; reused across calls once capacity covers the widest segment
		res.row.layer, res.row.ramp = terms[:n:n], terms[n:]
	}
	res.row.layer, res.row.ramp = res.row.layer[:n], res.row.ramp[:n]
	fillRow(m, from, to, spec, b, &res.row)
	return &res.row
}

// runSplit is the one split-execution loop: it partitions the batch into
// completions and survivors and prices the split from row's terms, each
// scaled by slowdown. row must hold the terms for len(batch).
//
//e3:hotpath runs one split per dispatched batch, from a table or on the fly
func runSplit(m *ee.EEModel, from, to int, batch []workload.Sample, row *splitRow, slowdown float64, res *Result) {
	if slowdown < 1 {
		slowdown = 1
	}
	res.Duration = 0
	res.HandoffDelay = 0
	res.UsefulFLOPs = 0
	res.RampTime = 0
	res.PadTime = 0
	res.Completions = res.Completions[:0]
	res.Survivors = res.Survivors[:0]
	if len(batch) == 0 {
		return
	}
	b := len(batch)

	// Partition exits up front (the decision is a pure function of the
	// sample, so applying it before or after the time loop is equivalent)
	// and histogram them by layer offset: padHist[0] counts samples already
	// past their exit on entry, padHist[k-from+1] counts exits after layer
	// k. The time loop turns this into the pad-waste attribution.
	span := to - from + 2
	if cap(res.padHist) < span {
		res.padHist = make([]int, span) //e3:alloc one-time scratch grow; reused across calls once capacity covers the widest segment
	} else {
		res.padHist = res.padHist[:span]
		for i := range res.padHist {
			res.padHist[i] = 0
		}
	}
	exited := 0
	for _, s := range batch {
		e := m.ExitLayerFor(s.Difficulty)
		if e <= to {
			res.Completions = append(res.Completions, Completion{Sample: s, ExitLayer: e})
			exited++
			j := e - from + 1
			if j < 0 {
				j = 0
			}
			res.padHist[j]++
		} else {
			res.Survivors = append(res.Survivors, s)
		}
	}

	t := 0.0
	dead := res.padHist[0]
	for i, lt := range row.layer {
		t += lt * slowdown
		if dead > 0 {
			// Charge the layer pro rata to riders whose exit already passed.
			res.PadTime += lt * slowdown * (float64(dead) / float64(b))
		}
		if head := row.ramp[i]; head != 0 {
			// Inline ramp head: kernels only, decision deferred.
			t += head * slowdown
			res.RampTime += head * slowdown
		}
		dead += res.padHist[i+1]
	}
	res.Duration = t
	res.UsefulFLOPs = row.useful

	// The boundary sync applies all deferred exit decisions; it runs on
	// the host after the device frees, so it lands in HandoffDelay.
	handoff := (SyncBase + float64(b)*SyncPerSample) * slowdown
	if exited > 0 && len(res.Survivors) > 0 {
		handoff += (ReformOverhead + float64(len(res.Survivors))*ReformPerSample) * slowdown
	}
	res.HandoffDelay = handoff
	// Boundary completions happen once decisions are applied.
	for i := range res.Completions {
		res.Completions[i].Offset = t + handoff
	}
}

// SplitTable is one split compiled for one GPU kind: its per-layer and
// ramp terms for every batch size 1..maxBatch, plus the planned (healthy)
// time of each. A plan's splits are fixed until the next replan, so a
// pipeline stage compiles its table once and each batch reads it instead
// of re-deriving layer costs. Larger batches fall back to terms computed
// on the fly; both go through the same loop as RunSplitInto, so results
// are bit-identical to it. The model's ramp set must not change while the
// table is in use.
type SplitTable struct {
	m        *ee.EEModel
	from, to int
	spec     gpu.Spec
	// rows[b-1] and planned[b-1] are batch b's terms and SplitTime.
	rows    []splitRow
	planned []float64
}

// CompileSplit builds the table for layers [from, to] of m on spec, for
// batches up to maxBatch. It panics on malformed bounds, like RunSplit.
func CompileSplit(m *ee.EEModel, from, to int, spec gpu.Spec, maxBatch int) *SplitTable {
	checkSplit(m, from, to)
	t := &SplitTable{
		m: m, from: from, to: to, spec: spec,
		rows:    make([]splitRow, maxBatch),
		planned: make([]float64, maxBatch),
	}
	n := to - from + 1
	terms := make([]float64, 2*n*maxBatch)
	for i := range t.rows {
		row := &t.rows[i]
		row.layer, row.ramp, terms = terms[:n:n], terms[n:2*n:2*n], terms[2*n:]
		fillRow(m, from, to, spec, i+1, row)
		t.planned[i] = SplitTime(m, from, to, i+1, spec)
	}
	return t
}

// RunInto is RunSplitInto(m, from, to, batch, spec, slowdown, res) for
// the table's split, reading precompiled terms when len(batch) is within
// the table.
//
//e3:hotpath runs one split per dispatched pipeline batch
func (t *SplitTable) RunInto(batch []workload.Sample, slowdown float64, res *Result) {
	if b := len(batch); b >= 1 && b <= len(t.rows) {
		runSplit(t.m, t.from, t.to, batch, &t.rows[b-1], slowdown, res)
		return
	}
	runSplit(t.m, t.from, t.to, batch, res.scratchRow(t.m, t.from, t.to, t.spec, len(batch)), slowdown, res)
}

// Planned returns SplitTime(m, from, to, b, spec) for the table's split:
// the device time a batch of b takes on a healthy device.
func (t *SplitTable) Planned(b int) float64 {
	if b >= 1 && b <= len(t.planned) {
		return t.planned[b-1]
	}
	return SplitTime(t.m, t.from, t.to, b, t.spec)
}

// SplitHandoff predicts RunSplit's HandoffDelay for planning.
func SplitHandoff(batch int, exitFrac float64) float64 {
	h := SyncBase + float64(batch)*SyncPerSample
	if exitFrac > 1e-9 && exitFrac < 1-1e-9 {
		h += ReformOverhead + float64(batch)*(1-exitFrac)*ReformPerSample
	}
	return h
}

// SplitTime predicts RunSplit's duration for a constant batch without
// materializing samples; SplitHandoff predicts the boundary handoff.
func SplitTime(m *ee.EEModel, from, to int, batch int, spec gpu.Spec) float64 {
	checkSplit(m, from, to)
	if batch <= 0 {
		return 0
	}
	L := m.Base.NumLayers()
	head := rampHeadTime(spec, m.RampFLOPs(), batch)
	t := 0.0
	for k := from; k <= to; k++ {
		l := m.Base.Layers[k-1]
		t += spec.LayerTimeW(l.FLOPs, l.WeightBytes, batch)
		if m.HasRampAfter(k) || k == L {
			t += head
		}
	}
	return t
}
