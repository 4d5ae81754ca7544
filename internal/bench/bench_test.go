package bench_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"e3/internal/bench"
)

func TestWrapRoundTrip(t *testing.T) {
	type payload struct {
		Throughput float64 `json:"throughput_rps"`
	}
	env, err := bench.Wrap("traced-demo", 424242,
		&bench.TraceParams{HorizonS: 10, AvgRate: 2000, Batch: 8},
		map[string]float64{"throughput_rps": 1234.5},
		payload{Throughput: 1234.5})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := bench.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Schema != bench.CurrentSchema || got.Kind != "traced-demo" || got.Seed != 424242 {
		t.Fatalf("envelope fields lost: %+v", got)
	}
	var p payload
	if err := json.Unmarshal(got.Payload, &p); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if p.Throughput != 1234.5 {
		t.Fatalf("payload lost: %+v", p)
	}
}

// TestWrapRecordsHost checks every wrapped report carries the host it
// ran on through a round trip, and that an envelope written before the
// host field decodes with an empty one.
func TestWrapRecordsHost(t *testing.T) {
	env, err := bench.Wrap("sim-bench", 0, nil, nil, struct{}{})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	h := env.Host
	if h.GoMaxProcs != runtime.GOMAXPROCS(0) || h.NumCPU != runtime.NumCPU() || h.GoVersion != runtime.Version() {
		t.Fatalf("host %+v, want GOMAXPROCS %d, %d CPUs, %s", h, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := bench.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Host != h {
		t.Fatalf("host after round trip %+v, want %+v", got.Host, h)
	}
	old, err := bench.Decode([]byte(`{"schema": 1, "tool": "e3-bench", "kind": "plan-bench", "payload": {}}`))
	if err != nil {
		t.Fatalf("Decode old envelope: %v", err)
	}
	if old.Host != (bench.Host{}) {
		t.Fatalf("old envelope decoded with host %+v, want empty", old.Host)
	}
}

func TestDecodeRejectsNewerSchema(t *testing.T) {
	if _, err := bench.Decode([]byte(`{"schema": 99}`)); err == nil {
		t.Fatal("want error for schema 99")
	}
}

// TestDecodeAllExistingBenchArtifacts proves the envelope reader accepts
// every BENCH_PR*.json already committed at the repo root: pre-envelope
// files (no "schema" key) must decode as Schema 0 with the whole document
// as payload, and envelope files must carry a non-empty kind.
func TestDecodeAllExistingBenchArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("expected at least 4 BENCH_PR*.json artifacts at the repo root, found %d: %v", len(paths), paths)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := bench.Decode(data)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if rep.Schema == 0 {
			// Legacy: payload must be the original document, still an object.
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(rep.Payload, &doc); err != nil {
				t.Errorf("%s: legacy payload not an object: %v", filepath.Base(path), err)
			} else if len(doc) == 0 {
				t.Errorf("%s: legacy payload empty", filepath.Base(path))
			}
			continue
		}
		if rep.Kind == "" {
			t.Errorf("%s: envelope (schema %d) missing kind", filepath.Base(path), rep.Schema)
		}
		if len(rep.Payload) == 0 {
			t.Errorf("%s: envelope missing payload", filepath.Base(path))
		}
	}
}
