package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/serving"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// TestHandlersShareAPIConcurrently runs /v1/infer posts beside /metrics,
// /v1/stats, /v1/plan, /v1/health and /v1/trace reads, each request on
// its own net/http goroutine, so the race detector (make race) sees every
// handler's use of API.mu. Afterwards the live counters hold every post.
func TestHandlersShareAPIConcurrently(t *testing.T) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	prof := profile.FromDist(m, workload.Mix(0.8), 4000, 1)
	plan, err := optimizer.MaximizeGoodput(optimizer.NewConfig(m, prof, 8, cluster.Homogeneous(gpu.V100, 8), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPI(m, plan, Boot{
		Tracer:       telemetry.NewRing(16),
		ControlPlane: &serving.ControlPlane{Provenance: &optimizer.SearchTrace{}},
	})
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	const clients, posts = 4, 25
	paths := []string{"/metrics", "/v1/stats", "/v1/plan", "/v1/health", "/v1/trace"}
	errs := make(chan error, 2*clients*posts)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				body := fmt.Sprintf(`{"difficulty":%g}`, float64(c*posts+i)/float64(clients*posts))
				errs <- request(http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(body)))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				errs <- request(http.Get(srv.URL + paths[(c+i)%len(paths)]))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	exits := 0
	for _, n := range a.exitCounts {
		exits += n
	}
	if a.served != clients*posts || exits != a.served || a.inferLat.Count() != uint64(a.served) {
		t.Errorf("served %d, exits %d, latency samples %d; want %d each", a.served, exits, a.inferLat.Count(), clients*posts)
	}
}

// request drains and closes a response, failing on any status but 200.
func request(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
	}
	return nil
}
