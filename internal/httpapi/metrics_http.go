package httpapi

import (
	"net/http"
	"strconv"
)

// Live observability endpoints. /metrics serves Prometheus text
// exposition (counters plus fixed-bucket histograms, so a scrape is
// O(buckets) regardless of how many requests the attached run served);
// /v1/trace serves the tracer's ring-buffered recent spans as JSON.

// handleMetrics writes the scrape in a fixed section order: the live
// /v1/infer series, then the control plane, flame and fleet sections, then
// the boot run's tracer.
func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := expo{w}

	e.one("e3_infer_requests_total", "counter", "Inference requests served over HTTP.", a.served)
	e.family("e3_exit_layer_total", "counter", "Requests by early-exit layer.")
	for _, k := range sortedKeys(a.exitCounts) {
		e.sample("e3_exit_layer_total", a.exitCounts[k], "layer", strconv.Itoa(k))
	}
	e.family("e3_infer_predicted_latency_seconds", "histogram", "Plan-predicted latency of live inference requests.")
	e.histogram("e3_infer_predicted_latency_seconds", a.inferLat)

	a.writeControlPlaneMetrics(e)
	a.writeFlameMetrics(e)
	a.writeFleetMetrics(e)

	tr := a.boot.Tracer
	if tr == nil {
		return
	}
	arrived, completed, dropped := tr.Counts()
	e.family("e3_sim_samples_total", "counter", "Samples of the attached simulated run by outcome.")
	e.sample("e3_sim_samples_total", arrived, "outcome", "arrived")
	e.sample("e3_sim_samples_total", completed, "outcome", "completed")
	e.sample("e3_sim_samples_total", dropped, "outcome", "dropped")

	drops := tr.DropsByReason()
	e.family("e3_sim_drops_total", "counter", "Dropped samples of the attached run by reason.")
	for _, reason := range sortedKeys(drops) {
		e.sample("e3_sim_drops_total", drops[reason], "reason", reason)
	}

	e.family("e3_sim_latency_seconds", "histogram", "Completion latency of the attached simulated run.")
	e.histogram("e3_sim_latency_seconds", tr.LatencyHist())

	if stages := tr.Stages(); len(stages) > 0 {
		e.family("e3_split_batch_size", "histogram", "Executed batch sizes per split of the attached run.")
		for _, st := range stages {
			e.histogram("e3_split_batch_size", tr.BatchHist(st), "split", strconv.Itoa(st))
		}
	}

	e.one("e3_trace_spans_total", "counter", "Spans recorded by the tracer (including ring-evicted).", tr.Total())
	e.one("e3_trace_spans_evicted_total", "counter", "Spans evicted from the ring buffer.", tr.Evicted())
}

// SpanJSON is one span of the /v1/trace response.
type SpanJSON struct {
	Track string  `json:"track"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Stage int     `json:"stage"`
	Batch int     `json:"batch"`
	GPU   string  `json:"gpu,omitempty"`
}

// TraceResponse is the /v1/trace body: the most recent spans the ring
// retains, oldest first.
type TraceResponse struct {
	TotalRecorded uint64     `json:"total_recorded"`
	Evicted       uint64     `json:"evicted"`
	Spans         []SpanJSON `json:"spans"`
}

func (a *API) handleTrace(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	resp := TraceResponse{Spans: []SpanJSON{}}
	if tr := a.boot.Tracer; tr != nil {
		resp.TotalRecorded = tr.Total()
		resp.Evicted = tr.Evicted()
		for _, s := range tr.Spans() {
			resp.Spans = append(resp.Spans, SpanJSON{
				Track: s.Track, Kind: s.Kind.String(), Start: s.Start, End: s.End,
				Stage: s.Stage, Batch: s.Batch, GPU: s.GPU,
			})
		}
	}
	writeJSON(w, resp)
}
