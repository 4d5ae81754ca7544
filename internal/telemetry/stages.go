package telemetry

import "sort"

// denseStages bounds the stage numbers StageIndex resolves with a single
// slice load. Pipelines split a model into a handful of stages, and no
// runner records a stage past this or below zero.
const denseStages = 64

// StageIndex numbers the stages an observer has seen 0, 1, 2, … in order
// of first sight, so per-stage state lives in a slice indexed by slot
// instead of a map keyed by stage. A stage in [0, denseStages) resolves
// with one slice load. Any other int resolves by a linear scan of the few
// such stages seen, so no stage number costs memory in proportion to its
// size: the observers' exported methods accept any int stage, and
// internal/slo/testdata/slots.golden.json pins stages −2, −1 and 70. The
// zero value is ready to use.
type StageIndex struct {
	dense  []int32 // stage → slot+1 (0 = unseen), for 0 ≤ stage < len(dense)
	stages []int   // slot → stage
	odd    []int32 // slots of stages outside the dense range
}

// Slot returns stage's slot, numbering it at first sight: a new stage gets
// slot Len()-1, so owners append its state to their per-slot slice.
func (x *StageIndex) Slot(stage int) int {
	if uint(stage) < uint(len(x.dense)) && x.dense[stage] != 0 {
		return int(x.dense[stage]) - 1
	}
	return x.add(stage)
}

// add is Slot's path for a stage outside the dense table or not yet in it.
func (x *StageIndex) add(stage int) int {
	if slot := x.Lookup(stage); slot >= 0 {
		return slot
	}
	slot := len(x.stages)
	x.stages = append(x.stages, stage)
	if stage >= 0 && stage < denseStages {
		for len(x.dense) <= stage {
			x.dense = append(x.dense, 0)
		}
		x.dense[stage] = int32(slot + 1)
	} else {
		x.odd = append(x.odd, int32(slot))
	}
	return slot
}

// Lookup returns stage's slot, or -1 for a stage never seen.
func (x *StageIndex) Lookup(stage int) int {
	if stage >= 0 && stage < denseStages {
		if stage < len(x.dense) {
			return int(x.dense[stage]) - 1
		}
		return -1
	}
	for _, slot := range x.odd {
		if x.stages[slot] == stage {
			return int(slot)
		}
	}
	return -1
}

// Len reports how many stages have a slot.
func (x *StageIndex) Len() int { return len(x.stages) }

// Stage returns the stage number behind a slot.
func (x *StageIndex) Stage(slot int) int { return x.stages[slot] }

// Sorted returns the slots ordered by ascending stage number — the order
// a sorted walk over a stage-keyed map would produce.
func (x *StageIndex) Sorted() []int {
	slots := make([]int, len(x.stages))
	for i := range slots {
		slots[i] = i
	}
	sort.Slice(slots, func(i, j int) bool { return x.stages[slots[i]] < x.stages[slots[j]] })
	return slots
}
