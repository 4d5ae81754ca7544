package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"e3/internal/telemetry"
)

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// testTracer records a tiny deterministic run: 3 arrivals, 2 completions,
// 1 drop, execute spans on two stages.
func testTracer(capacity int) *telemetry.Tracer {
	var tr *telemetry.Tracer
	if capacity > 0 {
		tr = telemetry.NewRing(capacity)
	} else {
		tr = telemetry.New()
	}
	tr.Arrive()
	tr.Arrive()
	tr.Arrive()
	tr.QueueWait(2, 0.00, 0.05)
	tr.Execute("v100-0", "V100", 0, 2, 0.05, 0.10)
	tr.Transfer(0, 1, 0.10, 0.11)
	tr.Fuse(1, 1, 0.11, 0.12)
	tr.Execute("v100-1", "V100", 1, 1, 0.12, 0.15)
	tr.Complete(0.10)
	tr.Complete(0.14)
	tr.Drop("admission")
	return tr
}

func TestMetricsWithoutTelemetry(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	body, code := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE e3_infer_requests_total counter",
		"e3_infer_requests_total 0",
		"# TYPE e3_infer_predicted_latency_seconds histogram",
		"e3_infer_predicted_latency_seconds_count 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No attached tracer: the simulated-run families must be absent.
	if strings.Contains(body, "e3_sim_") || strings.Contains(body, "e3_trace_") {
		t.Errorf("/metrics exposes sim metrics without a tracer:\n%s", body)
	}
}

func TestMetricsGolden(t *testing.T) {
	srv := httptest.NewServer(bootAPI(t, Boot{Tracer: testTracer(0)}).Handler())
	defer srv.Close()

	// One live inference so the live sections are non-trivial too.
	body, _ := json.Marshal(InferRequest{Difficulty: 0.3})
	resp, err := http.Post(srv.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out, code := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"e3_infer_requests_total 1",
		"e3_infer_predicted_latency_seconds_count 1",
		`e3_sim_samples_total{outcome="arrived"} 3`,
		`e3_sim_samples_total{outcome="completed"} 2`,
		`e3_sim_samples_total{outcome="dropped"} 1`,
		`e3_sim_drops_total{reason="admission"} 1`,
		"# TYPE e3_sim_latency_seconds histogram",
		"e3_sim_latency_seconds_count 2",
		"# TYPE e3_split_batch_size histogram",
		`e3_split_batch_size_count{split="0"} 1`,
		`e3_split_batch_size_count{split="1"} 1`,
		"e3_trace_spans_total 5",
		"e3_trace_spans_evicted_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Histogram bucket lines are cumulative and end with +Inf.
	if !strings.Contains(out, `e3_sim_latency_seconds_bucket{le="+Inf"} 2`) {
		t.Errorf("latency histogram missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `e3_split_batch_size_bucket{split="0",le="+Inf"} 1`) {
		t.Errorf("batch histogram missing labeled +Inf bucket")
	}
}

func TestMetricsBucketsCumulative(t *testing.T) {
	tr := telemetry.New()
	for _, lat := range []float64{0.001, 0.01, 0.1, 1.0} {
		tr.Complete(lat)
	}
	srv := httptest.NewServer(bootAPI(t, Boot{Tracer: tr}).Handler())
	defer srv.Close()
	out, _ := get(t, srv.URL+"/metrics")

	last := -1
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "e3_sim_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %d after %d in %q", v, last, line)
		}
		last = v
		n++
	}
	if n == 0 {
		t.Fatal("no latency bucket lines")
	}
	if last != 4 {
		t.Fatalf("final cumulative count = %d, want 4", last)
	}
}

func TestTraceEmpty(t *testing.T) {
	srv := httptest.NewServer(testAPI(t).Handler())
	defer srv.Close()
	body, code := get(t, srv.URL+"/v1/trace")
	if code != http.StatusOK {
		t.Fatalf("/v1/trace status %d", code)
	}
	var tr TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TotalRecorded != 0 || tr.Evicted != 0 {
		t.Errorf("counters nonzero with no tracer: %+v", tr)
	}
	if tr.Spans == nil || len(tr.Spans) != 0 {
		t.Errorf("spans = %v, want present-but-empty array", tr.Spans)
	}
	// The JSON must serialize spans as [], not null.
	if !strings.Contains(body, `"spans":[]`) {
		t.Errorf("spans not an empty array in %q", body)
	}
}

func TestTraceGolden(t *testing.T) {
	srv := httptest.NewServer(bootAPI(t, Boot{Tracer: testTracer(0)}).Handler())
	defer srv.Close()
	body, _ := get(t, srv.URL+"/v1/trace")
	var tr TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TotalRecorded != 5 || tr.Evicted != 0 || len(tr.Spans) != 5 {
		t.Fatalf("trace response = total %d evicted %d spans %d, want 5/0/5",
			tr.TotalRecorded, tr.Evicted, len(tr.Spans))
	}
	// Recording order preserved; kinds round-trip as strings.
	wantKinds := []string{"queue-wait", "execute", "transfer", "fuse", "execute"}
	for i, s := range tr.Spans {
		if s.Kind != wantKinds[i] {
			t.Fatalf("span %d kind = %q, want %q", i, s.Kind, wantKinds[i])
		}
	}
	if tr.Spans[1].Track != "v100-0" || tr.Spans[1].GPU != "V100" || tr.Spans[1].Batch != 2 || tr.Spans[1].Stage != 0 {
		t.Errorf("execute span fields: %+v", tr.Spans[1])
	}
	if tr.Spans[0].GPU != "" {
		t.Errorf("queue-wait span has GPU %q", tr.Spans[0].GPU)
	}
}

func TestTraceRingWrap(t *testing.T) {
	tr := telemetry.NewRing(2)
	for i := 0; i < 5; i++ {
		tr.Execute("g0", "V100", 0, i+1, float64(i), float64(i)+0.5)
	}
	srv := httptest.NewServer(bootAPI(t, Boot{Tracer: tr}).Handler())
	defer srv.Close()
	body, _ := get(t, srv.URL+"/v1/trace")
	var out TraceResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalRecorded != 5 || out.Evicted != 3 {
		t.Fatalf("total %d evicted %d, want 5/3", out.TotalRecorded, out.Evicted)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(out.Spans))
	}
	// Oldest-first: batches 4 then 5 survive.
	if out.Spans[0].Batch != 4 || out.Spans[1].Batch != 5 {
		t.Fatalf("ring order wrong: %+v", out.Spans)
	}
}

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels [][2]string // in line order
	value  string
}

// parsePromSample parses `name{a="x",b="y"} value`, unescaping label
// values.
func parsePromSample(line string) (promSample, error) {
	var s promSample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("bad label in %q", line)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[0] {
					case '\\', '"':
						c = rest[0]
					case 'n':
						c = '\n'
					default:
						return s, fmt.Errorf("unknown escape \\%c in %q", rest[0], line)
					}
					rest = rest[1:]
				}
				val.WriteByte(c)
			}
			s.labels = append(s.labels, [2]string{name, val.String()})
			rest = strings.TrimPrefix(rest, ",")
		}
		if rest == "" {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest, " ") || strings.ContainsAny(rest[1:], " {}") {
		return s, fmt.Errorf("bad value in %q", line)
	}
	s.value = rest[1:]
	return s, nil
}

// TestMetricsExposition checks the shape of the golden scrape: every
// family declares exactly one # HELP and one # TYPE before its first
// sample, every sample belongs to a declared family (histograms through
// _bucket/_sum/_count), each histogram series' buckets never decrease and
// end at le="+Inf" equal to its _count, and an escaped label value
// round-trips.
func TestMetricsExposition(t *testing.T) {
	scrape := strings.TrimPrefix(goldenBodies(t)["/metrics"], "200\n")
	help, typ := map[string]int{}, map[string]string{}
	typeLines, sampled := map[string]int{}, map[string]bool{}
	lastBucket := map[string]float64{} // histogram series -> last cumulative count
	infBucket := map[string]string{}
	counts := map[string]string{}
	gotReason := false
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			if sampled[f[2]] {
				t.Errorf("%s header after its first sample: %q", f[2], line)
			}
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				typeLines[f[2]]++
				typ[f[2]] = f[3]
			default:
				t.Errorf("unknown comment line %q", line)
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strconv.ParseFloat(s.value, 64); err != nil {
			t.Errorf("unparseable value in %q", line)
		}
		family, suffix := s.name, ""
		if _, ok := typ[family]; !ok {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(s.name, sfx); base != s.name && typ[base] == "histogram" {
					family, suffix = base, sfx
				}
			}
		}
		if typ[family] == "" || help[family] == 0 {
			t.Errorf("sample of undeclared family: %q", line)
			continue
		}
		if typ[family] == "histogram" && suffix == "" {
			t.Errorf("histogram sample without a series suffix: %q", line)
		}
		sampled[family] = true

		series, le := family, ""
		for _, l := range s.labels {
			if l[0] == "le" {
				le = l[1]
			} else {
				series += "," + l[0] + "=" + l[1]
			}
			if l[0] == "reason" && l[1] == escapedReason {
				gotReason = true
			}
		}
		switch suffix {
		case "_bucket":
			v, _ := strconv.ParseFloat(s.value, 64)
			if last, ok := lastBucket[series]; ok && v < last {
				t.Errorf("bucket decreases to %v after %v: %q", v, last, line)
			}
			lastBucket[series] = v
			if le == "+Inf" {
				infBucket[series] = s.value
			}
		case "_count":
			counts[series] = s.value
		}
	}
	for name, n := range help {
		if n != 1 || typeLines[name] != 1 {
			t.Errorf("%s has %d # HELP and %d # TYPE lines, want 1 and 1", name, n, typeLines[name])
		}
	}
	for name := range typeLines {
		if help[name] == 0 {
			t.Errorf("%s has # TYPE but no # HELP", name)
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram series in the scrape")
	}
	for series, n := range counts {
		if infBucket[series] != n {
			t.Errorf("%s: le=\"+Inf\" bucket %q != _count %q", series, infBucket[series], n)
		}
	}
	if !gotReason {
		t.Errorf("drop reason %q did not round-trip through the label escape", escapedReason)
	}
}
