package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func empiricalMean(d Dist, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	return sum / float64(n)
}

func empiricalCDF(d Dist, x float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	c := 0
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= x {
			c++
		}
	}
	return float64(c) / float64(n)
}

func TestBetaMeanMatchesAnalytic(t *testing.T) {
	for _, c := range [][2]float64{{2, 2}, {1, 4.2}, {3.8, 1.25}, {0.5, 0.5}, {5, 1}} {
		b := NewBeta(c[0], c[1])
		got := empiricalMean(b, 40000, 1)
		want := b.Mean()
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Beta(%v,%v) empirical mean %v, analytic %v", c[0], c[1], got, want)
		}
	}
}

func TestBetaRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(ra, rb uint8) bool {
		a := 0.3 + float64(ra%40)/10
		b := 0.3 + float64(rb%40)/10
		d := NewBeta(a, b)
		for i := 0; i < 50; i++ {
			v := d.Sample(rng)
			if v <= 0 || v >= 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// refGamma is Marsaglia–Tsang as the sampler first computed it, deriving
// d and c on every draw, with the boost trick for shape < 1. It is the
// oracle for the precomputed constants.
func refGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return refGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// TestBetaMatchesPerDrawGamma checks that computing the gamma constants
// once per Beta changes no draw: Beta and refGamma consume the same
// random stream and return bit-identical values, boosted shapes (< 1)
// included.
func TestBetaMatchesPerDrawGamma(t *testing.T) {
	for _, c := range [][2]float64{{1.8, 5.0}, {6.0, 1.6}, {1, 4.2}, {0.5, 0.5}, {0.3, 2.7}} {
		b := NewBeta(c[0], c[1])
		r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		for i := 0; i < 20000; i++ {
			x := refGamma(r1, c[0])
			y := refGamma(r1, c[1])
			want := math.Min(math.Max(x/(x+y), 1e-9), 1-1e-9)
			if got := b.Sample(r2); got != want {
				t.Fatalf("Beta(%v,%v) draw %d: %v, per-draw gamma %v", c[0], c[1], i, got, want)
			}
		}
	}
}

func TestGammaShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive gamma shape did not panic")
		}
	}()
	newGamma(0)
}

func TestMixtureMean(t *testing.T) {
	m := Mixture{Components: []Dist{Constant(0.2), Constant(0.8)}, Weights: []float64{3, 1}}
	if got := m.Mean(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("mixture mean = %v, want 0.35", got)
	}
	got := empiricalMean(m, 20000, 2)
	if math.Abs(got-0.35) > 0.01 {
		t.Errorf("mixture empirical mean = %v, want 0.35", got)
	}
}

func TestMixWeights(t *testing.T) {
	// An 80% easy mix must be much easier than a 20% easy mix.
	easy := empiricalMean(Mix(0.8), 20000, 4)
	hard := empiricalMean(Mix(0.2), 20000, 5)
	if easy >= hard {
		t.Errorf("Mix(0.8) mean %v not easier than Mix(0.2) mean %v", easy, hard)
	}
	if easy > 0.45 {
		t.Errorf("80/20 mix mean %v, want < 0.45 (mostly-easy)", easy)
	}
	if hard < 0.55 {
		t.Errorf("20/80 mix mean %v, want > 0.55 (mostly-hard)", hard)
	}
}

func TestMixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mix(1.5) did not panic")
		}
	}()
	Mix(1.5)
}

func TestWMTCalibration(t *testing.T) {
	// ~70% of WMT tokens must sit below difficulty 0.25 (exit by decoder
	// layer 2 of 8 under CALM's default threshold).
	got := empiricalCDF(WMT(), 0.25, 40000, 6)
	if got < 0.62 || got > 0.78 {
		t.Errorf("P(WMT difficulty ≤ 0.25) = %v, want ~0.70", got)
	}
}

func TestBoolQCalibration(t *testing.T) {
	// ~50% of BoolQ inputs exit by layer 25/32 → difficulty ≤ 0.781.
	got := empiricalCDF(BoolQ(), 25.0/32.0, 40000, 7)
	if got < 0.40 || got > 0.60 {
		t.Errorf("P(BoolQ difficulty ≤ 25/32) = %v, want ~0.50", got)
	}
}

func TestGLUECalibration(t *testing.T) {
	// Roughly half of SST-2/QNLI inputs exit by mid-model (Figure 3).
	for name, d := range map[string]Dist{"sst2": SST2(), "qnli": QNLI()} {
		got := empiricalCDF(d, 0.5, 40000, 8)
		if got < 0.35 || got > 0.65 {
			t.Errorf("P(%s ≤ 0.5) = %v, want ~0.5", name, got)
		}
	}
	// QNLI is the harder task.
	if QNLI().Mean() <= SST2().Mean() {
		t.Error("QNLI should be harder than SST-2")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(SST2(), 42)
	b := NewGenerator(SST2(), 42)
	for i := 0; i < 100; i++ {
		sa := a.Next(1, 0.1)
		sb := b.Next(1, 0.1)
		if sa != sb {
			t.Fatalf("generator not deterministic at %d: %+v vs %+v", i, sa, sb)
		}
	}
}

func TestGeneratorIDsAndDeadlines(t *testing.T) {
	g := NewGenerator(Constant(0.5), 1)
	s1 := g.Next(10, 0.1)
	s2 := g.Next(11, 0.1)
	if s1.ID != 1 || s2.ID != 2 {
		t.Errorf("IDs = %d,%d, want 1,2", s1.ID, s2.ID)
	}
	if s1.Deadline != 10.1 {
		t.Errorf("deadline = %v, want 10.1", s1.Deadline)
	}
}

func TestGeneratorBatch(t *testing.T) {
	g := NewGenerator(Constant(0.3), 1)
	b := g.Batch(8, 5, 0.1)
	if len(b) != 8 {
		t.Fatalf("batch len = %d", len(b))
	}
	for i, s := range b {
		if s.Arrival != 5 || s.Difficulty != 0.3 {
			t.Errorf("sample %d = %+v", i, s)
		}
	}
}

func TestSwitchDist(t *testing.T) {
	g := NewGenerator(Constant(0.1), 1)
	if s := g.Next(0, 1); s.Difficulty != 0.1 {
		t.Fatalf("pre-switch difficulty %v", s.Difficulty)
	}
	g.SwitchDist(Constant(0.9))
	if s := g.Next(0, 1); s.Difficulty != 0.9 {
		t.Fatalf("post-switch difficulty %v", s.Difficulty)
	}
}

// TestClampUnitMatchesMinMax checks the two-comparison clamp against the
// math.Min/math.Max expression it replaced, bit for bit: on the edge
// values and their neighbouring floats, then on 1M seeded draws of
// arbitrary bit patterns, values around [0, 1] and Beta ratios.
func TestClampUnitMatchesMinMax(t *testing.T) {
	oracle := func(v float64) float64 { return math.Min(math.Max(v, 1e-9), 1-1e-9) }
	check := func(v float64) {
		if got, want := clampUnit(v), oracle(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clampUnit(%v [%#x]) = %v [%#x], want %v [%#x]",
				v, math.Float64bits(v), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 1, -1, 5e-324}
	for _, v := range []float64{1e-9, 1 - 1e-9} {
		edges = append(edges, v, math.Nextafter(v, 0), math.Nextafter(v, 2))
	}
	for _, v := range edges {
		check(v)
		check(-v)
	}
	rng := rand.New(rand.NewSource(34))
	x, y := newGamma(0.3), newGamma(0.4)
	for i := 0; i < 1_000_000; i++ {
		switch i % 3 {
		case 0:
			check(math.Float64frombits(rng.Uint64()))
		case 1:
			check(1.2*rng.Float64() - 0.1)
		default:
			a, b := x.sample(rng), y.sample(rng)
			check(a / (a + b))
		}
	}
}
