// Traced demo benchmarks. This file lives in an external test package so
// it can drive the demo through internal/experiments without an import
// cycle (experiments → serving → scheduler → telemetry). The wall-clock
// gate on the full observed stack is `e3-bench -bench-out` (make overhead).
package telemetry_test

import (
	"testing"

	"e3/internal/experiments"
	"e3/internal/scheduler"
	"e3/internal/telemetry"
)

func BenchmarkTracedDemoOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.RunDemo("pipeline", scheduler.Observers{}, experiments.DemoHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracedDemoRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs := scheduler.Observers{Tracer: telemetry.NewRing(4096)}
		if _, _, _, _, err := experiments.RunDemo("pipeline", obs, experiments.DemoHorizon); err != nil {
			b.Fatal(err)
		}
	}
}
