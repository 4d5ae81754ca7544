package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"e3/internal/ee"
	"e3/internal/model"
	"e3/internal/workload"
)

func TestFromDifficultiesExact(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	// Exit layers: 0.12→2, 0.5→6, 0.99→12, 0.99→12.
	p := FromDifficulties(m, []float64{0.12, 0.5, 0.99, 0.99})
	if p.At(1) != 1 {
		t.Errorf("At(1) = %v, want 1", p.At(1))
	}
	if got := p.At(3); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("At(3) = %v, want 0.75", got)
	}
	if got := p.At(7); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(7) = %v, want 0.5", got)
	}
	if got := p.At(12); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(12) = %v, want 0.5 (final-layer samples stay active)", got)
	}
	if got := p.At(13); got != 0 {
		t.Errorf("At(L+1) = %v, want 0", got)
	}

	// The same inputs as an exit histogram give the same profile, bit for
	// bit.
	counts := make([]int, 13)
	counts[2], counts[6], counts[12] = 1, 1, 2
	h := FromExitCounts(counts)
	if h.L != p.L {
		t.Fatalf("histogram L = %d, want %d", h.L, p.L)
	}
	for k := 1; k <= p.L; k++ {
		if h.At(k) != p.At(k) {
			t.Errorf("histogram At(%d) = %v, want %v", k, h.At(k), p.At(k))
		}
	}
	// Survival is alive/total, divided once per layer.
	h = FromExitCounts([]int{0, 1, 0, 2})
	if h.L != 3 || h.At(1) != 1 || h.At(2) != float64(2)/float64(3) || h.At(3) != float64(2)/float64(3) {
		t.Errorf("FromExitCounts({0,1,0,2}) = %v, want [1 2/3 2/3]", h.Survival[1:])
	}
}

func TestExitFracSumsToOne(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	p := FromDist(m, workload.Mix(0.5), 5000, 1)
	sum := 0.0
	for k := 1; k <= p.L-1; k++ {
		sum += p.At(k) - p.After(k) // the fraction exiting at layer k's ramp
	}
	// Remaining mass exits at the final layer: survival entering L.
	sum += p.At(p.L)
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exit fractions sum to %v, want 1", sum)
	}
}

func TestEmptyDifficultiesIsAllSurvive(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	p := FromDifficulties(m, nil)
	for k := 1; k <= p.L; k++ {
		if p.At(k) != 1 {
			t.Fatalf("empty profile At(%d) = %v, want 1", k, p.At(k))
		}
	}
	if h := FromExitCounts(make([]int, 13)); h.L != 12 || h.MaxAbsDiff(p) != 0 {
		t.Errorf("empty histogram = %v, want all ones over 12 layers", h)
	}
}

func TestClampEnforcesShape(t *testing.T) {
	// Deliberately malformed curve: rises, exceeds 1, goes negative.
	p := NewBatch([]float64{0.5, 1.2, 0.8, 0.9, -0.3, 0.4})
	if p.At(1) != 1 {
		t.Errorf("Survival[1] = %v, want forced to 1", p.At(1))
	}
	prev := 1.0
	for k := 1; k <= p.L; k++ {
		v := p.At(k)
		if v > prev || v < 0 || v > 1 {
			t.Fatalf("clamped profile invalid at %d: %v (prev %v)", k, v, prev)
		}
		prev = v
	}
}

func TestEasierWorkloadDecaysFaster(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	easy := FromDist(m, workload.Mix(0.8), 8000, 2)
	hard := FromDist(m, workload.Mix(0.2), 8000, 3)
	if easy.At(6) >= hard.At(6) {
		t.Errorf("easy survival at 6 (%v) not below hard (%v)", easy.At(6), hard.At(6))
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewBatch([]float64{1, 0.8, 0.6, 0.4})
	b := NewBatch([]float64{1, 0.7, 0.6, 0.5})
	if got := a.MaxAbsDiff(b); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v, want 0.1", got)
	}
	if got := a.MaxAbsDiff(a); got != 0 {
		t.Errorf("self diff = %v", got)
	}
	c := NewBatch([]float64{1, 0.5})
	if got := a.MaxAbsDiff(c); got != 1 {
		t.Errorf("mismatched-length diff = %v, want 1", got)
	}
}

func TestWithErrorStillValid(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	p := FromDist(m, workload.Mix(0.5), 5000, 4)
	for _, e := range []float64{-1, -0.5, 0, 0.5, 1.0} {
		q := p.WithError(e)
		prev := 1.0
		for k := 1; k <= q.L; k++ {
			v := q.At(k)
			if v > prev+1e-12 || v < 0 || v > 1 {
				t.Fatalf("WithError(%v) invalid at layer %d: %v", e, k, v)
			}
			prev = v
		}
	}
	// Positive error over-predicts survival.
	if p.WithError(0.5).At(6) < p.At(6) {
		t.Error("positive error should raise survival")
	}
}

func TestBatchAt(t *testing.T) {
	p := NewBatch([]float64{1, 0.5, 0.25})
	if got := p.BatchAt(2, 16); got != 8 {
		t.Errorf("BatchAt(2,16) = %v, want 8", got)
	}
}

// Property: any random survival input clamps to a valid profile, and
// FromDifficulties always yields Survival[1]=1 with monotone decay.
func TestProfileValidityProperty(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	rng := rand.New(rand.NewSource(9))
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 128 {
			return true
		}
		diffs := make([]float64, len(raw))
		for i, r := range raw {
			diffs[i] = float64(r) / 65535
		}
		p := FromDifficulties(m, diffs)
		if p.At(1) != 1 {
			return false
		}
		prev := 1.0
		for k := 1; k <= p.L; k++ {
			if p.At(k) > prev+1e-12 {
				return false
			}
			prev = p.At(k)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	p := NewBatch([]float64{1, 0.5})
	if p.String() == "" {
		t.Error("empty String")
	}
}
