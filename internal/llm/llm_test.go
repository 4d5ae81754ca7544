package llm

import (
	"math"
	"math/rand"
	"testing"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/workload"
)

func TestGeometricLenMean(t *testing.T) {
	g := GeometricLen{MeanTokens: 18}
	rng := rand.New(rand.NewSource(1))
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		l := g.Sample(rng)
		if l < 1 {
			t.Fatal("length below 1")
		}
		sum += l
	}
	mean := float64(sum) / n
	if math.Abs(mean-18) > 1 {
		t.Errorf("geometric mean length = %v, want ~18", mean)
	}
}

func TestFixedLen(t *testing.T) {
	if FixedLen(25).Sample(nil) != 25 || FixedLen(25).Mean() != 25 {
		t.Error("FixedLen broken")
	}
}

func TestGenRequestsDeterministic(t *testing.T) {
	a := GenRequests(10, FixedLen(5), workload.WMT(), 3)
	b := GenRequests(10, FixedLen(5), workload.WMT(), 3)
	for i := range a {
		if a[i].Tokens() != 5 {
			t.Fatalf("request %d has %d tokens", i, a[i].Tokens())
		}
		for j := range a[i].Difficulties {
			if a[i].Difficulties[j] != b[i].Difficulties[j] {
				t.Fatal("GenRequests not deterministic")
			}
		}
	}
}

func TestStaticBatchTimeScalesWithLength(t *testing.T) {
	m := ee.NewVanilla(model.T5Decoder(18))
	spec := gpu.Get(gpu.A6000)
	short := GenRequests(4, FixedLen(5), workload.WMT(), 1)
	long := GenRequests(4, FixedLen(20), workload.WMT(), 1)
	ts := StaticBatchTime(m, short, spec)
	tl := StaticBatchTime(m, long, spec)
	if ratio := tl / ts; math.Abs(ratio-4) > 0.1 {
		t.Errorf("length 20/5 time ratio = %v, want ~4 (per-token iterations)", ratio)
	}
}

func TestStaticBatchPaddingWaste(t *testing.T) {
	// Mixed lengths: the batch takes as long as its longest request.
	m := ee.NewVanilla(model.T5Decoder(18))
	spec := gpu.Get(gpu.A6000)
	mixed := []Request{
		{Difficulties: make([]float64, 2)},
		{Difficulties: make([]float64, 30)},
	}
	uniform := []Request{
		{Difficulties: make([]float64, 30)},
		{Difficulties: make([]float64, 30)},
	}
	if tm, tu := StaticBatchTime(m, mixed, spec), StaticBatchTime(m, uniform, spec); math.Abs(tm-tu) > 1e-9 {
		t.Errorf("mixed batch %v != uniform batch %v — padding must dominate", tm, tu)
	}
}

func TestCALMFasterThanT5AtBatch1(t *testing.T) {
	// §5.1.3: at batch 1, CALM's per-token exits (70% by layer 2) give a
	// large speedup over vanilla T5.
	t5 := ee.NewVanilla(model.T5Decoder(25))
	calm := ee.NewCALM(model.T5Decoder(25), 0.25)
	spec := gpu.Get(gpu.A6000)
	gT5 := GoodputStatic(t5, FixedLen(25), workload.WMT(), 1, 4, spec, 30, 2)
	gCALM := GoodputStatic(calm, FixedLen(25), workload.WMT(), 1, 4, spec, 30, 2)
	ratio := gCALM / gT5
	if ratio < 1.5 {
		t.Errorf("CALM/T5 at batch 1 = %v, want ≥ 1.5 (paper: 2.84)", ratio)
	}
}

func TestCALMAdvantageShrinksWithBatch(t *testing.T) {
	t5 := ee.NewVanilla(model.T5Decoder(25))
	calm := ee.NewCALM(model.T5Decoder(25), 0.25)
	spec := gpu.Get(gpu.A6000)
	r1 := GoodputStatic(calm, FixedLen(25), workload.WMT(), 1, 4, spec, 20, 3) /
		GoodputStatic(t5, FixedLen(25), workload.WMT(), 1, 4, spec, 20, 3)
	r16 := GoodputStatic(calm, FixedLen(25), workload.WMT(), 16, 4, spec, 20, 3) /
		GoodputStatic(t5, FixedLen(25), workload.WMT(), 16, 4, spec, 20, 3)
	if r16 >= r1 {
		t.Errorf("CALM advantage did not shrink with batch: %v at 1, %v at 16", r1, r16)
	}
}

func TestGoodputScalesWithGPUs(t *testing.T) {
	m := ee.NewVanilla(model.T5Decoder(18))
	spec := gpu.Get(gpu.A6000)
	g1 := GoodputStatic(m, FixedLen(10), workload.WMT(), 4, 1, spec, 10, 4)
	g4 := GoodputStatic(m, FixedLen(10), workload.WMT(), 4, 4, spec, 10, 4)
	if math.Abs(g4/g1-4) > 1e-9 {
		t.Errorf("GPU scaling = %v, want 4", g4/g1)
	}
}

func TestEmptyBatch(t *testing.T) {
	m := ee.NewVanilla(model.T5Decoder(18))
	if StaticBatchTime(m, nil, gpu.Get(gpu.A6000)) != 0 {
		t.Error("empty batch should be free")
	}
}
