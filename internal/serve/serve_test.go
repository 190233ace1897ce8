package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTest builds a server, failing the test on config errors — every
// Config used by these tests is valid by construction.
func newTest(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func cellBody(t *testing.T, rec *httptest.ResponseRecorder) CellResponse {
	t.Helper()
	var resp CellResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, rec.Body.String())
	}
	return resp
}

const cellURL = "/v1/cell?kernel=wc&model=full&machine=issue8-br1"

// TestCellEndpoint: a cell request returns the measured statistics with
// a consistent derived IPC, and the checksum matches across models (the
// semantic-preservation invariant the whole evaluation rests on).
func TestCellEndpoint(t *testing.T) {
	s := newTest(t, Config{})
	sums := map[string]int64{}
	for _, model := range []string{"superblock", "cmov", "full", "guard"} {
		rec := get(t, s, fmt.Sprintf("/v1/cell?kernel=wc&model=%s&machine=issue8-br1", model))
		if rec.Code != http.StatusOK {
			t.Fatalf("model %s: status %d: %s", model, rec.Code, rec.Body.String())
		}
		resp := cellBody(t, rec)
		if resp.Stats.Cycles <= 0 || resp.Stats.Instrs <= 0 {
			t.Errorf("model %s: empty stats: %+v", model, resp.Stats)
		}
		if want := resp.Stats.IPC(); resp.IPC != want {
			t.Errorf("model %s: ipc %v != stats-derived %v", model, resp.IPC, want)
		}
		if resp.Machine.Name != "issue8-br1" {
			t.Errorf("model %s: machine %q", model, resp.Machine.Name)
		}
		sums[model] = resp.Checksum
	}
	for model, sum := range sums {
		if sum != sums["superblock"] {
			t.Errorf("model %s checksum %#x differs from superblock's %#x", model, sum, sums["superblock"])
		}
	}
}

// TestCellCacheSpeedup is the acceptance check: the second identical
// request is served from the result cache — at least 10x faster than the
// cold request, byte-identical, and labeled as a hit.
func TestCellCacheSpeedup(t *testing.T) {
	s := newTest(t, Config{})

	start := time.Now()
	cold := get(t, s, cellURL)
	coldTime := time.Since(start)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold request failed: %d: %s", cold.Code, cold.Body.String())
	}
	if h := cold.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", h)
	}

	start = time.Now()
	warm := get(t, s, cellURL)
	warmTime := time.Since(start)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm request failed: %d", warm.Code)
	}
	if h := warm.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", h)
	}
	if cold.Body.String() != warm.Body.String() {
		t.Error("cached response is not byte-identical to the computed one")
	}
	if warmTime*10 > coldTime {
		t.Errorf("cache hit took %v vs cold %v; want >=10x faster", warmTime, coldTime)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve_executions"]; n != 1 {
		t.Errorf("two identical sequential requests cost %d executions, want 1", n)
	}
	if n := snap.Counters["serve_result_cache_hits"]; n != 1 {
		t.Errorf("result cache hits = %d, want 1", n)
	}
}

// TestConcurrentIdenticalRequestsCoalesce: N identical concurrent
// requests cost exactly one compile+simulate execution and every caller
// receives the same body.  This is the singleflight acceptance test; it
// runs under -race in CI.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := newTest(t, Config{})
	gate := make(chan struct{})
	var mu sync.Mutex
	executions := 0
	s.computeHook = func(key string) {
		mu.Lock()
		executions++
		mu.Unlock()
		<-gate
	}

	const n = 12
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, s, cellURL)
		}(i)
	}
	// Let the duplicates pile onto the in-flight execution, then open it.
	for {
		mu.Lock()
		started := executions > 0
		mu.Unlock()
		if started {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if executions != 1 {
		t.Errorf("%d concurrent identical requests cost %d executions, want 1", n, executions)
	}
	labels := map[string]int{}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Errorf("request %d body differs; responses must be deterministic", i)
		}
		labels[rec.Header().Get("X-Cache")]++
	}
	if labels["miss"] != 1 {
		t.Errorf("X-Cache labels %v, want exactly one miss", labels)
	}
	if labels["miss"]+labels["coalesced"]+labels["hit"] != n {
		t.Errorf("unexpected X-Cache labels: %v", labels)
	}
}

// TestAdmissionControl: with one worker and a one-deep queue, a third
// concurrent distinct request is refused with 429 and a Retry-After
// hint while the first two are executing and waiting.
func TestAdmissionControl(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	started := make(chan string, 4)
	s.computeHook = func(key string) {
		started <- key
		<-gate
	}

	var wg sync.WaitGroup
	launch := func(kernel string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := get(t, s, fmt.Sprintf("/v1/cell?kernel=%s&model=full&machine=issue8-br1", kernel))
			if rec.Code != http.StatusOK {
				t.Errorf("kernel %s: status %d: %s", kernel, rec.Code, rec.Body.String())
			}
		}()
	}
	launch("wc") // occupies the worker
	<-started
	launch("grep") // occupies the queue slot
	for len(s.queue) < 2 {
		time.Sleep(time.Millisecond)
	}

	rec := get(t, s, "/v1/cell?kernel=qsort&model=full&machine=issue8-br1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(gate)
	wg.Wait()
	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve_rejected_queue"]; n != 1 {
		t.Errorf("serve_rejected_queue = %d, want 1", n)
	}
}

// TestDrain: during a drain, the in-flight request completes with 200,
// new compute requests are refused with 503, /healthz reports draining,
// and Drain returns once the in-flight work finished.  Runs under -race.
func TestDrain(t *testing.T) {
	s := newTest(t, Config{})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.computeHook = func(key string) {
		started <- struct{}{}
		<-gate
	}

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflight <- get(t, s, cellURL) }()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Drain must be visible to new requests before we probe; poll the
	// health endpoint until the flag flipped.
	for {
		if rec := get(t, s, "/healthz"); strings.Contains(rec.Body.String(), "draining") {
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("draining /healthz status %d, want 503", rec.Code)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}

	if rec := get(t, s, cellURL); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status %d, want 503", rec.Code)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a request was still in flight", err)
	default:
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rec := <-inflight
	if rec.Code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", rec.Code)
	}

	// A drain with no budget left reports the interruption.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err == nil {
		// No in-flight work, so even an expired context drains cleanly.
		_ = err
	}
}

// TestRequestTimeout: a request-scoped deadline that expires maps onto
// the harness TimeoutError and a 504, and the failed result is not
// cached — a later request recomputes.
func TestRequestTimeout(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, cellURL+"&timeout=1ns")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if s.results.entries() != 0 {
		t.Error("timed-out computation was cached")
	}
}

// TestBadRequests: unknown coordinates and malformed parameters are 400s
// with a one-line JSON error document.
func TestBadRequests(t *testing.T) {
	s := newTest(t, Config{})
	for _, url := range []string{
		"/v1/cell?kernel=nosuch&model=full&machine=issue8-br1",
		"/v1/cell?kernel=wc&model=nosuch&machine=issue8-br1",
		"/v1/cell?kernel=wc&model=full&machine=nosuch",
		"/v1/cell?kernel=wc&model=full&machine=issue8-br1&timeout=potato",
		"/v1/cell?kernel=wc&model=full&machine=issue8-br1&timeout=-3s",
		"/v1/figures?kernels=wc,nosuch",
	} {
		rec := get(t, s, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Error == "" {
			t.Errorf("%s: error document missing: %s", url, rec.Body.String())
		}
	}
}

// TestBreakdownEndpoint: /v1/breakdown adds an instrumented run whose
// breakdown decomposes the cycle count exactly, cached separately from
// the uninstrumented cell.
func TestBreakdownEndpoint(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, "/v1/breakdown?kernel=wc&model=full&machine=issue8-br1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Stats struct {
			Cycles int64 `json:"cycles"`
		} `json:"stats"`
		Breakdown map[string]int64 `json:"breakdown"`
		Mix       []struct {
			Class string `json:"class"`
		} `json:"mix"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("breakdown response does not parse: %v", err)
	}
	if doc.Breakdown["total"] != doc.Stats.Cycles {
		t.Errorf("breakdown total %d != cycles %d", doc.Breakdown["total"], doc.Stats.Cycles)
	}
	if len(doc.Mix) == 0 {
		t.Error("no instruction mix in breakdown response")
	}

	// The plain cell response stays breakdown-free and is its own entry.
	plain := get(t, s, cellURL)
	if strings.Contains(plain.Body.String(), "\"breakdown\"") {
		t.Error("uninstrumented cell response carries a breakdown")
	}
}

// TestArtifactSharing: the cache variant of a machine shares the
// compiled artifact with its perfect-cache scheduling target, and the
// gang fill goes further — the first cell's one emulation measures and
// caches every sibling configuration, so the second cell costs nothing
// at all.
func TestArtifactSharing(t *testing.T) {
	s := newTest(t, Config{})
	if rec := get(t, s, cellURL); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	rec := get(t, s, "/v1/cell?kernel=wc&model=full&machine=issue8-br1-64k")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if h := rec.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("sibling cell X-Cache = %q, want \"hit\" (gang fill)", h)
	}
	if n := s.artifacts.entries(); n != 1 {
		t.Errorf("artifact cache holds %d entries for two configs sharing one schedule, want 1", n)
	}
	snap := s.Registry().Snapshot()
	if n := snap.Counters["serve_executions"]; n != 1 {
		t.Errorf("executions = %d, want 1 (the gang fill covers the sibling)", n)
	}
	if n := snap.Counters["serve_gang_fill"]; n != 1 {
		t.Errorf("serve_gang_fill = %d, want 1", n)
	}
}

// TestPredictorParam: ?predictor=gshare is a distinct, gang-filled cell
// set under suffixed machine names; an unknown predictor is a one-line
// 400.
func TestPredictorParam(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, cellURL+"&predictor=gshare")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc CellResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Machine.Name != "issue8-br1+gshare" || doc.Machine.Predictor != "gshare" {
		t.Errorf("machine meta %+v, want issue8-br1+gshare/gshare", doc.Machine)
	}
	// The gshare run is its own cache universe: the bare-name cell still
	// misses, and the gshare sibling was gang-filled.
	if rec := get(t, s, cellURL); rec.Header().Get("X-Cache") != "miss" {
		t.Error("bare-predictor cell unexpectedly cached by the gshare run")
	}
	if rec := get(t, s, "/v1/cell?kernel=wc&model=full&machine=issue8-br1-64k&predictor=gshare"); rec.Header().Get("X-Cache") != "hit" {
		t.Error("gshare sibling not gang-filled")
	}
	if rec := get(t, s, cellURL+"&predictor=ttage"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown predictor: status %d, want 400", rec.Code)
	}
}

// TestWindowParam: ?window=32 is a distinct, gang-filled cell set on the
// out-of-order scheduler under suffixed machine names; a bad window, or
// one past machine.MaxWindowSize, is a one-line 400; ?window=0 is the
// bare in-order cell.
func TestWindowParam(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, cellURL+"&window=32")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc CellResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Machine.Name != "issue8-br1+ooo32" || !doc.Machine.OoO || doc.Machine.WindowSize != 32 {
		t.Errorf("machine meta %+v, want issue8-br1+ooo32 with a 32-entry window", doc.Machine)
	}
	// The window run is its own cache universe: the bare-name cell still
	// misses, and the window sibling was gang-filled.
	if rec := get(t, s, cellURL); rec.Header().Get("X-Cache") != "miss" {
		t.Error("bare-window cell unexpectedly cached by the ooo32 run")
	}
	if rec := get(t, s, "/v1/cell?kernel=wc&model=full&machine=issue8-br1-64k&window=32"); rec.Header().Get("X-Cache") != "hit" {
		t.Error("window sibling not gang-filled")
	}
	// ?window=0 is the in-order cell, now a hit from the bare run above.
	if rec := get(t, s, cellURL+"&window=0"); rec.Header().Get("X-Cache") != "hit" {
		t.Error("window=0 is not the bare in-order cell")
	}
	for _, bad := range []string{"-1", "x", "1.5", "4097"} {
		if rec := get(t, s, cellURL+"&window="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("window=%s: status %d, want 400", bad, rec.Code)
		}
	}
	// The axes compose: predictor and window suffixes stack.
	rec = get(t, s, cellURL+"&predictor=gshare&window=16")
	if rec.Code != http.StatusOK {
		t.Fatalf("composed axes: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Machine.Name != "issue8-br1+gshare+ooo16" {
		t.Errorf("composed machine name %q, want issue8-br1+gshare+ooo16", doc.Machine.Name)
	}
}

// TestFiguresEndpoint: the figure tables render over the requested
// kernels and the second request is a cache hit.
func TestFiguresEndpoint(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, "/v1/figures?kernels=wc")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc FiguresResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("figures response does not parse: %v", err)
	}
	if len(doc.Tables) == 0 {
		t.Fatal("no tables in figures response")
	}
	titles := make([]string, len(doc.Tables))
	for i, tb := range doc.Tables {
		titles[i] = tb.Title
	}
	if !strings.Contains(strings.Join(titles, ";"), "Figure 8") {
		t.Errorf("figure 8 missing from tables: %v", titles)
	}
	if len(doc.Errors) != 0 {
		t.Errorf("clean run reported errors: %v", doc.Errors)
	}

	again := get(t, s, "/v1/figures?kernels=wc")
	if h := again.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("second figures request X-Cache = %q, want hit", h)
	}
	if again.Body.String() != rec.Body.String() {
		t.Error("cached figures body differs")
	}
}

// TestMetricsEndpoint: /metrics renders the registry in the Prometheus
// text format with the serving counters present and parseable lines.
func TestMetricsEndpoint(t *testing.T) {
	s := newTest(t, Config{})
	get(t, s, cellURL)
	get(t, s, cellURL)
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, metric := range []string{
		"serve_requests", "serve_executions",
		"serve_result_cache_hits", "serve_result_cache_misses",
		"serve_artifact_cache_hits", "serve_artifact_cache_misses",
	} {
		if !strings.Contains(body, "# TYPE "+metric+" counter") {
			t.Errorf("/metrics missing counter %s:\n%s", metric, body)
		}
	}
	if !strings.Contains(body, "# TYPE serve_compute_ms histogram") {
		t.Error("/metrics missing the compute-time histogram")
	}
	if !strings.Contains(body, "serve_compute_ms_bucket{le=\"+Inf\"}") {
		t.Error("/metrics histogram missing the +Inf bucket")
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	if !strings.Contains(body, "serve_requests 2") {
		t.Errorf("serve_requests total wrong:\n%s", body)
	}
}

// TestHealthEndpoint: liveness before any traffic.
func TestHealthEndpoint(t *testing.T) {
	s := newTest(t, Config{})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}
