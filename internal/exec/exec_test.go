package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/workload"
)

func mkBatch(difficulties ...float64) []workload.Sample {
	out := make([]workload.Sample, len(difficulties))
	for i, d := range difficulties {
		out[i] = workload.Sample{ID: int64(i + 1), Difficulty: d}
	}
	return out
}

func TestVanillaFullPass(t *testing.T) {
	m := ee.NewVanilla(model.BERTBase())
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.1, 0.5, 0.9, 0.99)
	res := RunSegment(m, 1, 12, batch, spec, 1)
	if len(res.Completions) != 4 || len(res.Survivors) != 0 {
		t.Fatalf("completions=%d survivors=%d, want 4/0", len(res.Completions), len(res.Survivors))
	}
	// Everyone completes at the very end with identical offsets.
	for _, c := range res.Completions {
		if c.Offset != res.Duration {
			t.Errorf("vanilla completion offset %v != duration %v", c.Offset, res.Duration)
		}
		if c.ExitLayer != 12 {
			t.Errorf("vanilla exit layer %d, want 12", c.ExitLayer)
		}
	}
	// Duration ≈ 12 layers (with weight reads) + final head.
	want := 0.0
	for _, l := range m.Base.Layers {
		want += spec.LayerTimeW(l.FLOPs, l.WeightBytes, 4)
	}
	want += spec.LayerTime(m.RampFLOPs(), 4) + 2*spec.LaunchOverhead + SyncBase + 4*SyncPerSample
	if math.Abs(res.Duration-want) > 1e-12 {
		t.Errorf("duration %v, want %v", res.Duration, want)
	}
}

func TestEarlyExitsCompleteSooner(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.1, 0.95) // exit at layer ~2 and ~12
	res := RunSegment(m, 1, 12, batch, spec, 1)
	if len(res.Completions) != 2 {
		t.Fatalf("completions = %d, want 2", len(res.Completions))
	}
	byID := map[int64]Completion{}
	for _, c := range res.Completions {
		byID[c.Sample.ID] = c
	}
	if byID[1].Offset >= byID[2].Offset {
		t.Errorf("easy sample (off=%v) not earlier than hard (off=%v)", byID[1].Offset, byID[2].Offset)
	}
	if byID[1].ExitLayer >= byID[2].ExitLayer {
		t.Errorf("exit layers %d vs %d", byID[1].ExitLayer, byID[2].ExitLayer)
	}
}

func TestDrainedBatchSkipsLayers(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	// Single easy sample: exits at layer ~2; remaining 10 layers skipped.
	easy := RunSegment(m, 1, 12, mkBatch(0.12), spec, 1)
	hard := RunSegment(m, 1, 12, mkBatch(0.99), spec, 1)
	if easy.Duration >= hard.Duration/2 {
		t.Errorf("easy single-sample run %v not well under half of hard %v", easy.Duration, hard.Duration)
	}
}

func TestSegmentSurvivors(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	// Difficulties map to exit layers ~2, ~6, ~11, 12.
	batch := mkBatch(0.12, 0.5, 0.9, 0.99)
	res := RunSegment(m, 1, 6, batch, spec, 1)
	if len(res.Completions) != 2 {
		t.Fatalf("completions in [1,6] = %d, want 2", len(res.Completions))
	}
	if len(res.Survivors) != 2 {
		t.Fatalf("survivors = %d, want 2", len(res.Survivors))
	}
	// Survivors keep their identity.
	if res.Survivors[0].ID != 3 || res.Survivors[1].ID != 4 {
		t.Errorf("survivor IDs = %d,%d, want 3,4", res.Survivors[0].ID, res.Survivors[1].ID)
	}
}

func TestSecondSegmentContinues(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.12, 0.5, 0.9, 0.99)
	first := RunSegment(m, 1, 6, batch, spec, 1)
	second := RunSegment(m, 7, 12, first.Survivors, spec, 1)
	if got := len(first.Completions) + len(second.Completions); got != 4 {
		t.Fatalf("total completions across segments = %d, want 4", got)
	}
	if len(second.Survivors) != 0 {
		t.Errorf("final segment left %d survivors", len(second.Survivors))
	}
}

func TestMisroutedSampleCompletesImmediately(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	// Exit layer ~2 but routed into segment [7,12].
	res := RunSegment(m, 7, 12, mkBatch(0.12), spec, 1)
	if len(res.Completions) != 1 || res.Completions[0].Offset != 0 {
		t.Fatalf("misrouted sample: %+v", res.Completions)
	}
	if res.Duration != 0 {
		t.Errorf("duration = %v, want 0 (nothing to compute)", res.Duration)
	}
}

func TestStragglerSlowdownScales(t *testing.T) {
	m := ee.NewVanilla(model.BERTBase())
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.5, 0.5)
	healthy := RunSegment(m, 1, 12, batch, spec, 1)
	slow := RunSegment(m, 1, 12, batch, spec, 2)
	if math.Abs(slow.Duration-2*healthy.Duration) > 1e-12 {
		t.Errorf("slowdown 2 gave %v, want %v", slow.Duration, 2*healthy.Duration)
	}
	// Sub-1 slowdowns clamp to healthy.
	clamped := RunSegment(m, 1, 12, batch, spec, 0.5)
	if clamped.Duration != healthy.Duration {
		t.Error("slowdown < 1 not clamped")
	}
}

func TestEmptyBatch(t *testing.T) {
	m := ee.NewVanilla(model.BERTBase())
	res := RunSegment(m, 1, 12, nil, gpu.Get(gpu.V100), 1)
	if res.Duration != 0 || len(res.Completions) != 0 || len(res.Survivors) != 0 {
		t.Errorf("empty batch result: %+v", res)
	}
}

func TestBadSegmentPanics(t *testing.T) {
	m := ee.NewVanilla(model.BERTBase())
	for _, c := range [][2]int{{0, 5}, {5, 13}, {8, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("segment %v did not panic", c)
				}
			}()
			RunSegment(m, c[0], c[1], mkBatch(0.5), gpu.Get(gpu.V100), 1)
		}()
	}
}

func TestNaiveEESlowerThanVanillaAtLargeBatch(t *testing.T) {
	// The core paper phenomenon (§2.3): at large batch the EE model's
	// per-batch time saving is small (sub-saturation shrinkage) while ramp
	// overheads accrue, so per-sample EE throughput falls below vanilla.
	base := model.BERTBase()
	eeM := ee.NewDeeBERT(base, 0.4)
	van := ee.NewVanilla(base)
	spec := gpu.Get(gpu.V100)
	rng := rand.New(rand.NewSource(21))
	dist := workload.Mix(0.8)

	perSample := func(m *ee.EEModel, b int) float64 {
		total := 0.0
		const trials = 50
		for tr := 0; tr < trials; tr++ {
			batch := make([]workload.Sample, b)
			for i := range batch {
				batch[i] = workload.Sample{ID: int64(i), Difficulty: dist.Sample(rng)}
			}
			total += RunSegment(m, 1, 12, batch, spec, 1).Duration
		}
		return total / float64(trials*b)
	}

	// At batch 1, EE must be clearly faster (compute saving dominates).
	if e, v := perSample(eeM, 1), perSample(van, 1); e >= v*0.75 {
		t.Errorf("batch 1: EE per-sample %v not well below vanilla %v", e, v)
	}
	// At batch 2, EE still wins, but the margin must have shrunk
	// (Figure 7: near-wash at batch 2).
	r1 := perSample(eeM, 1) / perSample(van, 1)
	r2 := perSample(eeM, 2) / perSample(van, 2)
	if r2 <= r1 {
		t.Errorf("EE advantage did not shrink from batch 1 (%v) to 2 (%v)", r1, r2)
	}
	// By batch 4–8, EE must be slower per sample: the §2.3 utilization
	// collapse plus ramp sync overheads overtake the compute saving.
	for _, b := range []int{4, 8} {
		if e, v := perSample(eeM, b), perSample(van, b); e <= v {
			t.Errorf("batch %d: EE per-sample %v not above vanilla %v", b, e, v)
		}
	}
}

func TestSplitGraphModeConstantBatch(t *testing.T) {
	// E3's graph-mode split keeps the batch constant: duration must be
	// independent of the samples' difficulties (exits apply at boundary).
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	easyRes := RunSplit(m, 1, 6, mkBatch(0.05, 0.05, 0.05, 0.05), spec, 1)
	hardRes := RunSplit(m, 1, 6, mkBatch(0.99, 0.99, 0.99, 0.99), spec, 1)
	// Hard batch has no exits → no reform; easy batch exits everyone at
	// the boundary with no survivors → also no reform. Same duration.
	if math.Abs(easyRes.Duration-hardRes.Duration) > 1e-12 {
		t.Errorf("split duration varies with difficulty: %v vs %v", easyRes.Duration, hardRes.Duration)
	}
	if len(easyRes.Completions) != 4 || len(easyRes.Survivors) != 0 {
		t.Errorf("easy batch: %d completions, %d survivors", len(easyRes.Completions), len(easyRes.Survivors))
	}
	if len(hardRes.Completions) != 0 || len(hardRes.Survivors) != 4 {
		t.Errorf("hard batch: %d completions, %d survivors", len(hardRes.Completions), len(hardRes.Survivors))
	}
}

func TestSplitCheaperThanEagerAtScale(t *testing.T) {
	// Graph-mode split execution avoids per-ramp sync stalls, so a full
	// pass as two splits must beat the eager naive-EE pass at batch 8 for
	// a hard batch (no drain benefit for eager mode).
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99)
	eager := RunSegment(m, 1, 12, batch, spec, 1)
	s1 := RunSplit(m, 1, 6, batch, spec, 1)
	s2 := RunSplit(m, 7, 12, s1.Survivors, spec, 1)
	if got := s1.Duration + s2.Duration; got >= eager.Duration {
		t.Errorf("graph-mode total %v not below eager %v", got, eager.Duration)
	}
}

func TestSplitCompletionsAtBoundary(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	res := RunSplit(m, 1, 6, mkBatch(0.1, 0.4, 0.9), spec, 1)
	if len(res.Completions) != 2 || len(res.Survivors) != 1 {
		t.Fatalf("completions=%d survivors=%d, want 2/1", len(res.Completions), len(res.Survivors))
	}
	for _, c := range res.Completions {
		if c.Offset != res.Duration+res.HandoffDelay {
			t.Errorf("boundary completion offset %v != duration+handoff %v", c.Offset, res.Duration+res.HandoffDelay)
		}
	}
	if res.HandoffDelay <= 0 {
		t.Error("split with exits must have a positive handoff delay")
	}
}

func TestSplitTimePredictsRunSplit(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.P100)
	batch := mkBatch(0.1, 0.4, 0.7, 0.95)
	run := RunSplit(m, 1, 6, batch, spec, 1)
	pred := SplitTime(m, 1, 6, 4, spec)
	if rel := math.Abs(pred-run.Duration) / run.Duration; rel > 0.02 {
		t.Errorf("SplitTime %v vs RunSplit %v (rel %v)", pred, run.Duration, rel)
	}
}

func TestSplitStragglerScales(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.V100)
	batch := mkBatch(0.99, 0.99)
	h := RunSplit(m, 1, 6, batch, spec, 1)
	s := RunSplit(m, 1, 6, batch, spec, 3)
	if math.Abs(s.Duration-3*h.Duration) > 1e-12 {
		t.Errorf("straggler split %v, want %v", s.Duration, 3*h.Duration)
	}
}

func TestSplitEmptyAndBadBounds(t *testing.T) {
	m := ee.NewVanilla(model.BERTBase())
	if res := RunSplit(m, 1, 12, nil, gpu.Get(gpu.V100), 1); res.Duration != 0 {
		t.Error("empty split batch should be free")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad split bounds did not panic")
		}
	}()
	RunSplit(m, 0, 12, mkBatch(0.5), gpu.Get(gpu.V100), 1)
}

// Property: no sample is lost or duplicated across a random split of the
// model into two segments, and completion offsets are within duration.
func TestConservationProperty(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	spec := gpu.Get(gpu.K80)
	rng := rand.New(rand.NewSource(22))
	f := func(rawDiffs []uint16, rawCut uint8) bool {
		if len(rawDiffs) == 0 || len(rawDiffs) > 64 {
			return true
		}
		cut := int(rawCut%10) + 1 // split after layer 1..10
		batch := make([]workload.Sample, len(rawDiffs))
		for i, r := range rawDiffs {
			batch[i] = workload.Sample{ID: int64(i + 1), Difficulty: float64(r) / 65535}
		}
		r1 := RunSegment(m, 1, cut, batch, spec, 1)
		r2 := RunSegment(m, cut+1, 12, r1.Survivors, spec, 1)
		seen := make(map[int64]int)
		for _, c := range r1.Completions {
			seen[c.Sample.ID]++
			if c.Offset < 0 || c.Offset > r1.Duration+1e-12 {
				return false
			}
		}
		for _, c := range r2.Completions {
			seen[c.Sample.ID]++
			if c.Offset < 0 || c.Offset > r2.Duration+1e-12 {
				return false
			}
		}
		if len(seen) != len(batch) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
