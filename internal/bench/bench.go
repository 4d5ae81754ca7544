// Package bench defines the shared envelope for e3-bench's machine-
// readable JSON artifacts (the BENCH_PR*.json zoo). Every emitter —
// -bench-out, -windows N -bench-out, -plan-bench, -sim-bench and
// -fleet-bench — wraps its kind-specific payload in a Report carrying the
// schema version, the workload seed, the trace parameters, the host that
// ran it, and a flat headline-metrics map, so downstream tooling can index
// artifacts without knowing every payload shape. Decode also accepts the
// pre-envelope files (no "schema" key) as Schema 0 with the whole document
// as payload, so old BENCH files stay readable.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// CurrentSchema is the envelope version this package writes.
const CurrentSchema = 1

// TraceParams records the workload that produced a report.
type TraceParams struct {
	HorizonS   float64 `json:"horizon_s,omitempty"`
	AvgRate    float64 `json:"avg_rate,omitempty"`
	Batch      int     `json:"batch,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	WindowDurS float64 `json:"window_dur_s,omitempty"`
}

// Report is the envelope. Payload holds the kind-specific body verbatim.
type Report struct {
	// Schema is the envelope version; 0 marks a legacy pre-envelope file
	// whose entire document is the payload.
	Schema int `json:"schema"`
	// Tool and Kind identify the emitter ("e3-bench") and the artifact
	// family ("traced-demo", "replan-loop", "plan-bench", "sim-bench",
	// "fleet-bench").
	Tool string `json:"tool,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Seed is the workload seed the run used (0 when not seed-driven).
	Seed  int64        `json:"seed,omitempty"`
	Trace *TraceParams `json:"trace_params,omitempty"`
	// Host records the machine and build that produced the report; files
	// written before it existed decode with an empty host.
	Host Host `json:"host"`
	// Metrics is the flat headline-scalar index (throughput, p99, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`

	Payload json.RawMessage `json:"payload,omitempty"`
}

// Host is the machine and build a report was measured on.
type Host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Revision and Modified are the binary's VCS stamp (vcs.revision and
	// vcs.modified); a binary built without one, such as a test, leaves
	// them empty.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

// thisHost describes the running process.
func thisHost() Host {
	h := Host{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// Wrap builds an envelope around a payload value, recording the host.
func Wrap(kind string, seed int64, tp *TraceParams, metrics map[string]float64, payload any) (*Report, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("bench: encode %s payload: %w", kind, err)
	}
	return &Report{
		Schema: CurrentSchema, Tool: "e3-bench", Kind: kind,
		Seed: seed, Trace: tp, Host: thisHost(), Metrics: metrics, Payload: raw,
	}, nil
}

// Decode reads an envelope, accepting legacy pre-envelope documents: a
// JSON object without a "schema" key decodes as Schema 0 with the whole
// document as payload.
func Decode(data []byte) (*Report, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("bench: not a JSON object: %w", err)
	}
	if _, ok := probe["schema"]; !ok {
		return &Report{Schema: 0, Payload: json.RawMessage(data)}, nil
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema > CurrentSchema {
		return nil, fmt.Errorf("bench: envelope schema %d is newer than supported %d", rep.Schema, CurrentSchema)
	}
	return &rep, nil
}

// WriteFile writes the envelope as indented JSON with a trailing newline
// (the convention every BENCH artifact follows).
func WriteFile(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
