package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event export. The format is the JSON object form of
// the Trace Event Format that Perfetto and chrome://tracing load: one
// complete ("X") event per span with microsecond timestamps, one thread
// per track, and thread_name metadata ("M") events naming the tracks.
// Virtual seconds map to microseconds (1 virtual second = 1e6 ts units),
// so Perfetto's time ruler reads directly in virtual time.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// trackOrder sorts GPU (execute) tracks first, then logical lanes, each
// group alphabetically — so Perfetto shows the GPU occupancy timelines on
// top.
func trackOrder(spans []Span) []string {
	kindByTrack := make(map[string]Kind)
	for _, s := range spans {
		if _, seen := kindByTrack[s.Track]; !seen {
			kindByTrack[s.Track] = s.Kind
		}
	}
	tracks := make([]string, 0, len(kindByTrack))
	for tr := range kindByTrack {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		gi := kindByTrack[tracks[i]] == KindExecute
		gj := kindByTrack[tracks[j]] == KindExecute
		if gi != gj {
			return gi
		}
		return tracks[i] < tracks[j]
	})
	return tracks
}

// WriteChrome renders spans as Chrome trace-event JSON. Spans are sorted
// by (track, start, end) so each thread's events carry monotone
// timestamps regardless of recording interleave.
func WriteChrome(w io.Writer, spans []Span) error {
	tracks := trackOrder(spans)
	tid := make(map[string]int, len(tracks))
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, tr := range tracks {
		tid[tr] = i + 1
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: i + 1,
			Args: map[string]any{"name": tr},
		})
	}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Track != sorted[j].Track {
			return tid[sorted[i].Track] < tid[sorted[j].Track]
		}
		if sorted[i].Start < sorted[j].Start {
			return true
		}
		if sorted[i].Start > sorted[j].Start {
			return false
		}
		return sorted[i].End < sorted[j].End
	})
	for _, s := range sorted {
		args := map[string]any{"batch": s.Batch}
		if s.Stage >= 0 {
			args["stage"] = s.Stage
		}
		if s.GPU != "" {
			args["gpu"] = s.GPU
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: s.Kind.String(),
			Cat:  s.Kind.String(),
			Ph:   "X",
			TS:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			PID:  chromePID,
			TID:  tid[s.Track],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
