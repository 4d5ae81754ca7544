// Package llm serves autoregressive models (§5.1.3): requests generate one
// token per model pass, so a batch of requests is a stream of token
// iterations. Static batching (T5, CALM) pads every request to the
// longest generation in its batch; E3 instead feeds the token stream
// through its split pipeline, so finished requests never occupy slots and
// per-token early exits (CALM-style) shrink only the forwarded batch.
package llm

import (
	"math"
	"math/rand"

	"e3/internal/ee"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/workload"
)

// Request is one generation job: its output length and a difficulty per
// generated token.
type Request struct {
	Difficulties []float64
}

// Tokens is the request's output length.
func (r Request) Tokens() int { return len(r.Difficulties) }

// LengthDist draws output lengths.
type LengthDist interface {
	Sample(rng *rand.Rand) int
	Mean() float64
}

// FixedLen always generates n tokens (translation-like).
type FixedLen int

// Sample returns the fixed length.
func (f FixedLen) Sample(*rand.Rand) int { return int(f) }

// Mean returns the fixed length.
func (f FixedLen) Mean() float64 { return float64(f) }

// GeometricLen draws lengths ≥ 1 with the given mean (summarization-like
// variable outputs; the paper's SAMSum runs averaged 18 tokens).
type GeometricLen struct{ MeanTokens float64 }

// Sample draws a geometric length.
func (g GeometricLen) Sample(rng *rand.Rand) int {
	if g.MeanTokens <= 1 {
		return 1
	}
	p := 1 / g.MeanTokens
	n := 1
	for rng.Float64() > p && n < 512 {
		n++
	}
	return n
}

// Mean returns the configured mean.
func (g GeometricLen) Mean() float64 { return math.Max(g.MeanTokens, 1) }

// UniformLen draws lengths uniformly in [Min, Max] (summarization-like
// outputs with bounded spread).
type UniformLen struct{ Min, Max int }

// Sample draws a uniform length.
func (u UniformLen) Sample(rng *rand.Rand) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Intn(u.Max-u.Min+1)
}

// Mean returns the distribution mean.
func (u UniformLen) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// GenRequests draws n requests with token difficulties from dist.
func GenRequests(n int, lengths LengthDist, dist workload.Dist, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	for i := range out {
		l := lengths.Sample(rng)
		d := make([]float64, l)
		for j := range d {
			d[j] = dist.Sample(rng)
		}
		out[i] = Request{Difficulties: d}
	}
	return out
}

// padDifficulty is the difficulty assigned to pad tokens of finished
// requests under static batching: trivially easy, they exit at the first
// ramp (or run the full model when the model has no ramps — the padding
// waste the paper's T5 baseline pays).
const padDifficulty = 0.01

// StaticBatchTime returns the time one GPU needs to serve a batch of
// requests with static batching: maxLen iterations, each a full pass over
// a constant-width token batch (finished requests contribute pad tokens).
// Exit behaviour follows the model's ramps — none for vanilla T5,
// per-layer confidence exits for CALM.
func StaticBatchTime(m *ee.EEModel, reqs []Request, spec gpu.Spec) float64 {
	if len(reqs) == 0 {
		return 0
	}
	maxLen := 0
	for _, r := range reqs {
		if r.Tokens() > maxLen {
			maxLen = r.Tokens()
		}
	}
	total := 0.0
	for it := 0; it < maxLen; it++ {
		batch := make([]workload.Sample, len(reqs))
		for i, r := range reqs {
			d := padDifficulty
			if it < r.Tokens() {
				d = r.Difficulties[it]
			}
			batch[i] = workload.Sample{ID: int64(i), Difficulty: d}
		}
		total += exec.RunEager(m, batch, spec, 1).Duration
	}
	return total
}

// GoodputStatic measures requests/second for static batching over nGPU
// identical devices serving independent batches in parallel: each GPU
// repeatedly takes `batch` requests and runs them to completion.
func GoodputStatic(m *ee.EEModel, lengths LengthDist, dist workload.Dist, batch, nGPU int, spec gpu.Spec, trials int, seed int64) float64 {
	if trials < 1 {
		trials = 1
	}
	totalTime := 0.0
	totalReqs := 0
	for tr := 0; tr < trials; tr++ {
		reqs := GenRequests(batch, lengths, dist, seed+int64(tr))
		totalTime += StaticBatchTime(m, reqs, spec)
		totalReqs += len(reqs)
	}
	if totalTime == 0 {
		return 0
	}
	return float64(totalReqs) / totalTime * float64(nGPU)
}
