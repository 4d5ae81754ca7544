// Package gpu models GPU compute analytically.
//
// E3's phenomena hinge on one hardware fact: below a saturation batch size
// a GPU is latency-bound, so a kernel over 4 samples takes nearly as long
// as one over 8. We capture that with
//
//	t(B) = launch + (flops/peak) * sqrt(B² + Bsat²)
//
// which is flat (≈ Bsat·flops/peak) for B ≪ Bsat and linear for B ≫ Bsat.
// Early exits that shrink a batch below Bsat therefore stop saving time —
// the under-utilization the paper's Figure 3 shows — while exits that
// drain a batch to zero skip layers entirely.
//
// Per-kind peaks, overheads, and prices are calibrated against public
// spec sheets and cloud prices so *relative* speeds and costs (K80 < P100
// < V100 < A6000) match the paper's cluster.
package gpu

import (
	"fmt"
	"math"
	"sort"
)

// Kind identifies a GPU model.
type Kind string

// The four GPU kinds used in the paper's evaluation cluster.
const (
	K80   Kind = "K80"
	P100  Kind = "P100"
	V100  Kind = "V100"
	A6000 Kind = "A6000"
)

// Spec describes one GPU kind's analytical performance model.
type Spec struct {
	Kind Kind
	// PeakTFLOPS is sustained effective throughput for dense inference
	// kernels, in teraFLOPS.
	PeakTFLOPS float64
	// SatBatch is the batch size at which kernels transition from
	// latency-bound to throughput-bound.
	SatBatch float64
	// LaunchOverhead is the fixed per-layer cost (kernel launches,
	// framework dispatch), in seconds.
	LaunchOverhead float64
	// MemGB is device memory, bounding the largest batch that fits.
	MemGB float64
	// MemBWGBps is device memory bandwidth in GB/s. Each layer pass reads
	// its weights once per batch, which dominates small-batch LLM decode.
	MemBWGBps float64
	// HourlyUSD is the rental price used for cost experiments.
	HourlyUSD float64
}

// specs holds the calibrated catalogue. SatBatch grows with device width:
// wider GPUs need larger batches to saturate, which is why the paper's
// EE models prefer cheap narrow GPUs (§5.2).
var specs = map[Kind]Spec{
	K80:   {Kind: K80, PeakTFLOPS: 4.1, SatBatch: 2.5, LaunchOverhead: 100e-6, MemGB: 12, MemBWGBps: 240, HourlyUSD: 0.95},
	P100:  {Kind: P100, PeakTFLOPS: 9.3, SatBatch: 5, LaunchOverhead: 70e-6, MemGB: 16, MemBWGBps: 732, HourlyUSD: 1.87},
	V100:  {Kind: V100, PeakTFLOPS: 15.7, SatBatch: 8, LaunchOverhead: 50e-6, MemGB: 32, MemBWGBps: 900, HourlyUSD: 2.93},
	A6000: {Kind: A6000, PeakTFLOPS: 31.0, SatBatch: 12, LaunchOverhead: 40e-6, MemGB: 48, MemBWGBps: 768, HourlyUSD: 1.85},
}

// Get returns the spec for a kind. Unknown kinds panic: the catalogue is a
// closed set and a typo should fail loudly at construction time.
func Get(k Kind) Spec {
	s, ok := specs[k]
	if !ok {
		panic(fmt.Sprintf("gpu: unknown kind %q", k))
	}
	return s
}

// Kinds returns all known kinds, cheapest first (stable order for
// deterministic optimizer iteration).
func Kinds() []Kind {
	out := make([]Kind, 0, len(specs))
	for k := range specs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		return specs[out[i]].HourlyUSD < specs[out[j]].HourlyUSD
	})
	return out
}

// CostPerSecond is the rental price in USD per second.
func (s Spec) CostPerSecond() float64 { return s.HourlyUSD / 3600 }

// LayerTime returns the time (seconds) to run one layer of flops-per-sample
// work over a batch, excluding weight reads. Batch 0 is free: a
// fully-exited batch skips the layer.
func (s Spec) LayerTime(flopsPerSample float64, batch int) float64 {
	return s.LayerTimeW(flopsPerSample, 0, batch)
}

// LayerTimeW is LayerTime plus a weight-read term: the layer's weights
// cross memory once per batch regardless of batch size, which is what
// makes small-batch autoregressive decode bandwidth-bound and batching so
// valuable for it.
func (s Spec) LayerTimeW(flopsPerSample, weightBytes float64, batch int) float64 {
	if batch <= 0 || flopsPerSample <= 0 {
		return 0
	}
	b := float64(batch)
	eff := math.Sqrt(b*b + s.SatBatch*s.SatBatch)
	return s.LaunchOverhead + weightBytes/(s.MemBWGBps*1e9) + flopsPerSample*eff/(s.PeakTFLOPS*1e12)
}

// Utilization reports the fraction of peak FLOPS achieved at a batch size:
// B/sqrt(B²+Bsat²). It is what Figure 3's "GPU Util" axis measures.
func (s Spec) Utilization(batch int) float64 {
	if batch <= 0 {
		return 0
	}
	b := float64(batch)
	return b / math.Sqrt(b*b+s.SatBatch*s.SatBatch)
}

// UtilizationFrac is Utilization over a fractional (expected) batch size.
func (s Spec) UtilizationFrac(batch float64) float64 {
	if batch <= 0 {
		return 0
	}
	return batch / math.Sqrt(batch*batch+s.SatBatch*s.SatBatch)
}
