// Package cluster describes the physical resources E3 plans over: a set of
// GPUs spread across machines, joined by a simnet topology, with a dollar
// cost. The paper's evaluation cluster has 46 GPUs of four kinds across 26
// machines (§5 Experimental Setup); constructors below build it and the
// smaller per-experiment clusters.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"e3/internal/gpu"
	"e3/internal/simnet"
)

// Device is one GPU in the cluster.
type Device struct {
	ID      string
	Kind    gpu.Kind
	Machine int
	// Slowdown multiplies this device's compute time; 1 is healthy. The
	// straggler experiments raise it (§3.3).
	Slowdown float64
}

// Spec returns the device's performance model.
func (d Device) Spec() gpu.Spec { return gpu.Get(d.Kind) }

// Cluster is an inventory of devices plus their interconnect.
type Cluster struct {
	Devices  []Device
	Topology simnet.Topology
}

// New builds a cluster from per-kind counts, packing gpusPerMachine devices
// per machine (the paper's servers host "one or more" GPUs; 2 is typical).
// Kinds are placed in catalogue order so layout is deterministic.
func New(counts map[gpu.Kind]int, gpusPerMachine int) *Cluster {
	if gpusPerMachine < 1 {
		gpusPerMachine = 1
	}
	c := &Cluster{Topology: simnet.Default()}
	kinds := make([]gpu.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	machine, inMachine := 0, 0
	for _, k := range kinds {
		for i := 0; i < counts[k]; i++ {
			c.Devices = append(c.Devices, Device{
				ID:       fmt.Sprintf("%s-%d", k, i),
				Kind:     k,
				Machine:  machine,
				Slowdown: 1,
			})
			inMachine++
			if inMachine == gpusPerMachine {
				machine++
				inMachine = 0
			}
		}
	}
	return c
}

// Homogeneous builds an n-GPU single-kind cluster, two GPUs per machine.
func Homogeneous(kind gpu.Kind, n int) *Cluster {
	return New(map[gpu.Kind]int{kind: n}, 2)
}

// PaperEvaluation builds the paper's full 46-GPU, 26-machine testbed mix.
func PaperEvaluation() *Cluster {
	return New(map[gpu.Kind]int{gpu.A6000: 7, gpu.V100: 16, gpu.P100: 8, gpu.K80: 15}, 2)
}

// PaperHeterogeneous builds the Figure 13 cost-matched mix: 6 V100, 8 P100,
// 15 K80, priced within a rounding error of 16 V100s ($0.013/s).
func PaperHeterogeneous() *Cluster {
	return New(map[gpu.Kind]int{gpu.V100: 6, gpu.P100: 8, gpu.K80: 15}, 2)
}

// Size reports the number of devices.
func (c *Cluster) Size() int { return len(c.Devices) }

// Counts returns the per-kind device inventory.
func (c *Cluster) Counts() map[gpu.Kind]int {
	out := make(map[gpu.Kind]int)
	for _, d := range c.Devices {
		out[d.Kind]++
	}
	return out
}

// Describe renders an inventory deterministically as count×kind terms in
// kind order, e.g. "4xK80+2xV100". Equal inventories render equally, so
// the string keys per-inventory plans.
func Describe(counts map[gpu.Kind]int) string {
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%dx%s", counts[gpu.Kind(k)], k))
	}
	return strings.Join(parts, "+")
}

// CostPerSecond is the rental price of the whole cluster, USD per second.
func (c *Cluster) CostPerSecond() float64 {
	sum := 0.0
	for _, d := range c.Devices {
		sum += d.Spec().CostPerSecond()
	}
	return sum
}

// OfKind returns indices (into Devices) of all devices of a kind, in order.
func (c *Cluster) OfKind(k gpu.Kind) []int {
	var out []int
	for i, d := range c.Devices {
		if d.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// Link returns the interconnect between two devices.
func (c *Cluster) Link(a, b int) simnet.Link {
	if a == b {
		return simnet.Loopback
	}
	return c.Topology.Between(c.Devices[a].Machine, c.Devices[b].Machine)
}

// Subset returns a view over the first n devices (same topology). It is
// how E3 holds back buffer GPUs for spike absorption: plan over the
// subset in steady state, expand to the full cluster under overload.
func (c *Cluster) Subset(n int) *Cluster {
	if n < 0 {
		n = 0
	}
	if n > len(c.Devices) {
		n = len(c.Devices)
	}
	return &Cluster{Devices: c.Devices[:n], Topology: c.Topology}
}

// MarkStraggler sets a device's slowdown factor (≥ 1).
func (c *Cluster) MarkStraggler(idx int, slowdown float64) {
	if slowdown < 1 {
		slowdown = 1
	}
	c.Devices[idx].Slowdown = slowdown
}
