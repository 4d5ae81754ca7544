package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineThroughput measures raw event dispatch rate — the floor
// under every serving simulation in the repository.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1e-6, tick)
		}
	}
	b.ResetTimer()
	e.After(1e-6, tick)
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReferenceEngineThroughput is the retained pre-fast-path
// baseline for BenchmarkEngineThroughput (container/heap, one pointer
// allocation per event).
func BenchmarkReferenceEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewReferenceEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1e-6, tick)
		}
	}
	b.ResetTimer()
	e.After(1e-6, tick)
	e.RunAll()
}

// BenchmarkEngineHeapChurn measures push+pop with a deep pending heap.
func BenchmarkEngineHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.At(float64(i), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1e4, func() {})
		e.Step()
	}
}

// BenchmarkTimerReset measures re-arming a pending timer beside a deep
// heap — the batcher's per-dispatch cost. Before timers, each re-arm
// pushed a fresh closure that later popped as a no-op.
func BenchmarkTimerReset(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.At(float64(i), func() {})
	}
	tm := e.NewTimer(func() {})
	other := e.NewTimer(func() {})
	other.Reset(5e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(float64(i % 8192))
	}
}

// BenchmarkReferenceEngineHeapChurn is the retained baseline for
// BenchmarkEngineHeapChurn.
func BenchmarkReferenceEngineHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewReferenceEngine()
	for i := 0; i < 10000; i++ {
		e.At(float64(i), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1e4, func() {})
		e.Step()
	}
}

// BenchmarkEngineChurn keeps live events pending, each rescheduling
// itself at a pseudo-random delay when it runs, so pushes land anywhere
// in the queue: 64 live is a few times a serving stack's queue, 256 the
// largest queue kept sorted, and 1024 a heap.
func BenchmarkEngineChurn(b *testing.B) {
	for _, live := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("live-%d", live), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			x := uint64(1)
			delay := func() Time {
				x = x*6364136223846793005 + 1442695040888963407
				return Time(x>>40) / (1 << 24)
			}
			n := 0
			var tick func()
			tick = func() {
				n++
				if n <= b.N {
					e.After(delay(), tick)
				}
			}
			for i := 0; i < live; i++ {
				e.After(delay(), tick)
			}
			for i := 0; i < live; i++ {
				e.Step()
			}
			b.ResetTimer()
			if err := e.RunAll(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
