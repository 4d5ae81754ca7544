// Package e3 reproduces E3 — "Improving DNN Inference Throughput Using
// Practical, Per-Input Compute Adaptation" (SOSP 2024) — as a pure-Go
// library over a deterministic cluster simulator.
//
// E3 makes early-exit DNNs practical for batched serving by splitting a
// model into contiguous layer blocks at exit ramps and replicating
// upstream splits so merged survivor batches keep every split running at
// a constant batch size. An online ARIMA profiler predicts per-window exit
// behaviour, a dynamic-programming optimizer chooses splits, GPU kinds and
// replica counts under SLO and cost constraints, and a pipelined
// model-parallel scheduler executes the plan with straggler handling.
//
// Layout:
//
//	internal/replan      the §3.1 control loop (forecast + optimizer + scheduler per window)
//	internal/optimizer   the §3.2 planning optimization
//	internal/forecast    ARIMA batch-profile estimation (§3.1)
//	internal/scheduler   pipelined model-parallel execution (§3.3) + baselines
//	internal/ee          early-exit framework (DeeBERT/BranchyNet/PABEE/CALM/...)
//	internal/exec        batch execution semantics on the GPU cost model
//	internal/gpu ...     the simulated substrate (devices, network, cluster)
//	internal/experiments one runner per paper table/figure
//	cmd/...              e3-bench, e3-serve, e3-optimize, e3-trace
//	examples/...         runnable end-to-end scenarios
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package e3
