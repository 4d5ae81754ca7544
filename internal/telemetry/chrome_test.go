package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func chromeSample() []Span {
	return []Span{
		{Track: "v100-1", Kind: KindExecute, Start: 0.3, End: 0.5, Stage: 1, Batch: 4, GPU: "V100"},
		{Track: "v100-0", Kind: KindExecute, Start: 0.0, End: 0.2, Stage: 0, Batch: 8, GPU: "V100"},
		{Track: "batcher", Kind: KindQueueWait, Start: 0.0, End: 0.05, Stage: -1, Batch: 8},
		{Track: "v100-0", Kind: KindExecute, Start: 0.2, End: 0.4, Stage: 0, Batch: 8, GPU: "V100"},
		{Track: "xfer:s0->s1", Kind: KindTransfer, Start: 0.2, End: 0.25, Stage: 0, Batch: 4},
		{Track: "merge:s1", Kind: KindFuse, Start: 0.25, End: 0.3, Stage: 1, Batch: 4},
	}
}

// decodedTrace is Chrome trace-event JSON as a trace viewer reads it,
// decoded with the test's own field names rather than the writer's types.
type decodedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// writeDecoded writes spans with WriteChrome and returns the decoded file
// and its raw text.
func writeDecoded(t *testing.T, spans []Span) (decodedTrace, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return file, buf.String()
}

func TestWriteChromeStructure(t *testing.T) {
	file, raw := writeDecoded(t, chromeSample())
	if file.DisplayTimeUnit == "" {
		t.Fatal("missing displayTimeUnit")
	}

	// One thread_name metadata event per track; GPU tracks get the lowest
	// tids so they render on top.
	names := make(map[int]string)
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
			names[ev.TID] = ev.Args["name"].(string)
		}
	}
	if len(names) != 5 {
		t.Fatalf("got %d named tracks, want 5: %v", len(names), names)
	}
	if names[1] != "v100-0" || names[2] != "v100-1" {
		t.Fatalf("GPU tracks not first: %v", names)
	}

	// Per-track timestamps monotone, durations non-negative, microsecond
	// scaling.
	lastTS := make(map[int]float64)
	nX := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		nX++
		if ev.Dur < 0 {
			t.Fatalf("negative duration on %q", ev.Name)
		}
		if prev, seen := lastTS[ev.TID]; seen && ev.TS < prev {
			t.Fatalf("track %s timestamps not monotone: %v after %v", names[ev.TID], ev.TS, prev)
		}
		lastTS[ev.TID] = ev.TS
	}
	if nX != len(chromeSample()) {
		t.Fatalf("emitted %d complete events, want %d", nX, len(chromeSample()))
	}
	// Spot-check scaling: v100-1's execute starts at 0.3 virtual seconds =
	// 3e5 µs.
	if !strings.Contains(raw, "\"ts\":300000") {
		t.Fatalf("expected 0.3s -> 300000µs scaling in output")
	}
}

// TestChromeRoundTrip decodes the written JSON as a trace viewer does and
// checks that every span survives: its track through the thread_name
// metadata, its category, its start and duration in microseconds, and its
// stage, batch and GPU args.
func TestChromeRoundTrip(t *testing.T) {
	in := chromeSample()
	file, _ := writeDecoded(t, in)
	track := make(map[int]string)
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			track[ev.TID], _ = ev.Args["name"].(string)
		}
	}
	// Complete events come in the file's (track, start) sort order; bring
	// the originals into the same order and compare pairwise.
	want := make([]Span, len(in))
	copy(want, in)
	sortSpansLikeChrome(want)
	i := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if i == len(want) {
			t.Fatalf("more than %d complete events", len(want))
		}
		w := want[i]
		i++
		if got, ok := track[ev.TID]; !ok || got != w.Track {
			t.Fatalf("event %d: tid %d names track %q, want %q", i, ev.TID, got, w.Track)
		}
		if ev.Cat != w.Kind.String() {
			t.Fatalf("event %d on %s: category %q, want %q", i, w.Track, ev.Cat, w.Kind)
		}
		if ev.TS != w.Start*1e6 || ev.Dur != (w.End-w.Start)*1e6 {
			t.Fatalf("event %d on %s: ts %v dur %v µs, want span [%v, %v] s", i, w.Track, ev.TS, ev.Dur, w.Start, w.End)
		}
		if ev.Args["batch"] != float64(w.Batch) {
			t.Fatalf("event %d on %s: batch arg %v, want %d", i, w.Track, ev.Args["batch"], w.Batch)
		}
		stage, hasStage := ev.Args["stage"]
		if hasStage != (w.Stage >= 0) || hasStage && stage != float64(w.Stage) {
			t.Fatalf("event %d on %s: stage arg %v, want %d (absent below 0)", i, w.Track, stage, w.Stage)
		}
		gpu, hasGPU := ev.Args["gpu"]
		if hasGPU != (w.GPU != "") || hasGPU && gpu != w.GPU {
			t.Fatalf("event %d on %s: gpu arg %v, want %q (absent when empty)", i, w.Track, gpu, w.GPU)
		}
	}
	if i != len(want) {
		t.Fatalf("%d complete events, want %d", i, len(want))
	}
}

// sortSpansLikeChrome mirrors WriteChrome's on-disk event order: tracks in
// trackOrder sequence, then by start and end within a track.
func sortSpansLikeChrome(spans []Span) {
	order := trackOrder(spans)
	rank := make(map[string]int, len(order))
	for i, tr := range order {
		rank[tr] = i
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Track != spans[j].Track {
			return rank[spans[i].Track] < rank[spans[j].Track]
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End < spans[j].End
	})
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestWriteChromeEmpty(t *testing.T) {
	file, _ := writeDecoded(t, nil)
	if file.TraceEvents == nil || len(file.TraceEvents) != 0 {
		t.Fatalf("empty trace wrote traceEvents %v, want []", file.TraceEvents)
	}
}
