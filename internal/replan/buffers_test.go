package replan

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

// bootConfig is `windows` windows of Mix(0.8) traffic for BERT-Base/DeeBERT
// on 16 V100s, bootstrapped from an offline Mix(0.8) profile, with the
// plan that profile gives on the first `devices` GPUs. Callers set the
// offered rates.
func bootConfig(t *testing.T, devices, windows int) (Config, optimizer.Plan) {
	t.Helper()
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.Homogeneous(gpu.V100, 16)
	prof := profile.FromDist(m, workload.Mix(0.8), 8000, 1)
	boot, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, clus.Subset(devices), 0.100))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model: m, Cluster: clus, Batch: 8, SLO: 0.100,
		Windows: windows, WindowDur: 2.0, Seed: 291,
		DriftThreshold: 0.05,
		Method:         forecast.MethodARIMA,
		Initial:        prof,
	}, boot
}

// bufferConfig is the 4-of-16 reserve at the given multiples of the
// reserved plan's goodput, one per window.
func bufferConfig(t *testing.T, loads ...float64) Config {
	t.Helper()
	cfg, boot := bootConfig(t, 12, len(loads))
	rates := make([]float64, len(loads))
	for w, l := range loads {
		rates[w] = boot.Goodput * l
	}
	cfg.Workload = func(w int) (workload.Dist, float64) { return workload.Mix(0.8), rates[w] }
	cfg.BufferGPUs = 4
	return cfg
}

// bufferRun runs bufferConfig and checks the audit.
func bufferRun(t *testing.T, loads ...float64) []WindowStat {
	t.Helper()
	res, err := Run(bufferConfig(t, loads...))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.OK() {
		t.Fatalf("audit failed: %v", res.Report.Err())
	}
	return res.Windows
}

func TestBufferGPUsReservedInSteadyState(t *testing.T) {
	for _, ws := range bufferRun(t, 0.7, 0.7, 0.7) {
		if ws.GPUs > 12 || ws.Buffers {
			t.Errorf("steady window %d: plan uses %d GPUs, buffers %t; want ≤ 12 (4 reserved), no buffers",
				ws.Window, ws.GPUs, ws.Buffers)
		}
	}
}

func TestBufferGPUsEngageUnderOverload(t *testing.T) {
	ws := bufferRun(t, 0.7, 1.9, 0.7)
	if bad := 1 - ws[1].SLOAttainment; bad <= overloadBadFrac {
		t.Fatalf("spike window bad fraction %.4f, want > %v", bad, overloadBadFrac)
	}
	if !ws[2].Buffers || !ws[2].Replanned {
		t.Fatalf("overload did not engage the buffer GPUs: %+v", ws[2])
	}
	if ws[2].GPUs <= ws[0].GPUs {
		t.Errorf("overload plan uses %d GPUs, want more than steady %d", ws[2].GPUs, ws[0].GPUs)
	}
}

func TestBufferGPUsReleaseOnCleanWindow(t *testing.T) {
	ws := bufferRun(t, 0.7, 1.9, 0.7, 0.7)
	if bad := 1 - ws[2].SLOAttainment; !ws[2].Buffers || bad >= recoverBadFrac {
		t.Fatalf("window 2: buffers %t, bad fraction %.4f; want engaged and clean", ws[2].Buffers, bad)
	}
	if ws[3].Buffers || ws[3].GPUs > 12 || !ws[3].Replanned {
		t.Errorf("clean window did not release the buffers: %+v", ws[3])
	}
}

// TestInitialProfilePlansWindowZero: window 0 plans from the offline
// profile, so offering that plan's goodput drops nothing. The
// empty-history forecast assumes no exits and under-provisions it.
func TestInitialProfilePlansWindowZero(t *testing.T) {
	cfg, boot := bootConfig(t, 16, 1)
	cfg.Workload = func(int) (workload.Dist, float64) { return workload.Mix(0.8), boot.Goodput }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.FinalPlan.String(), boot.String(); got != want {
		t.Errorf("window 0 plan %s, want the offline profile's %s", got, want)
	}
	if w := res.Windows[0]; w.Dropped != 0 || w.GPUs != boot.GPUs {
		t.Errorf("window 0 with the offline profile: %+v, want no drops on %d GPUs", w, boot.GPUs)
	}
	cfg.Initial = profile.Batch{}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Windows[0].Dropped == 0 {
		t.Error("empty-history plan kept up with the offline plan's goodput; the test no longer tells them apart")
	}
}

// TestInitialWithErrorConserves (§5.8.3): planning from a deliberately
// wrong profile costs goodput, never correctness.
func TestInitialWithErrorConserves(t *testing.T) {
	cfg, boot := bootConfig(t, 16, 2)
	cfg.Initial = cfg.Initial.WithError(0.5)
	cfg.Workload = func(int) (workload.Dist, float64) { return workload.Mix(0.8), boot.Goodput }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.OK() {
		t.Fatalf("erroneous profile broke conservation: %v", res.Report.Err())
	}
	if res.Report.Samples == 0 {
		t.Fatal("no samples offered")
	}
}

func TestRunValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"nil model":     func(c *Config) { c.Model = nil },
		"nil cluster":   func(c *Config) { c.Cluster = nil },
		"zero windows":  func(c *Config) { c.Windows = 0 },
		"zero duration": func(c *Config) { c.WindowDur = 0 },
		"nil workload":  func(c *Config) { c.Workload = nil },
	} {
		cfg := DriftingDemo(1, forecast.MethodARIMA, nil)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
