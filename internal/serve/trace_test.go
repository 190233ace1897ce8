package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predication/internal/obs"
)

// parseServerTiming parses a Server-Timing header value back into
// per-stage millisecond durations, the client half of the round-trip
// these tests check.  Entries without a dur parameter are skipped;
// repeated names keep the last value.
func parseServerTiming(h string) map[string]float64 {
	if h == "" {
		return nil
	}
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "dur") {
				continue
			}
			if ms, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				out[name] = ms
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestServerTimingRoundTrip: Stages → header → parseServerTiming
// preserves every stage name and millisecond duration, sums repeated
// stage names, and always carries the total.
func TestServerTimingRoundTrip(t *testing.T) {
	tr := obs.NewTrace("")
	now := time.Now()
	tr.Add("compile", now, 1500*time.Microsecond)
	tr.Add("measure", now, 40*time.Millisecond)
	tr.Add("compile", now, 500*time.Microsecond) // repeated name sums
	time.Sleep(time.Millisecond)                 // give the root span a measurable wall
	tr.Finish()

	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "compile" || stages[1].Name != "measure" {
		t.Fatalf("stages = %+v, want compile then measure in first-start order", stages)
	}
	if stages[0].Dur != 2*time.Millisecond {
		t.Errorf("compile stage = %v, want summed 2ms", stages[0].Dur)
	}

	h := tr.ServerTiming()
	parsed := parseServerTiming(h)
	if parsed["compile"] != 2 || parsed["measure"] != 40 {
		t.Errorf("round-trip of %q = %v", h, parsed)
	}
	if total, ok := parsed["total"]; !ok || total <= 0 {
		t.Errorf("header %q: missing positive total", h)
	}
	if parseServerTiming("") != nil {
		t.Error("empty header should parse to nil")
	}
	if got := parseServerTiming("a;dur=1.5, b, c;other=2"); len(got) != 1 || got["a"] != 1.5 {
		t.Errorf("entries without dur should be skipped: %v", got)
	}
}

// getWithID is get with an X-Request-Id request header.
func getWithID(t *testing.T, s *Server, url, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestRequestIDEchoAndMint: a syntactically valid client ID is echoed
// verbatim; a missing or invalid one is replaced by a minted valid ID —
// every /v1/ response names its request.
func TestRequestIDEchoAndMint(t *testing.T) {
	s := newTest(t, Config{})
	if rec := getWithID(t, s, cellURL, "client-req-42"); rec.Header().Get("X-Request-Id") != "client-req-42" {
		t.Errorf("valid ID not echoed: %q", rec.Header().Get("X-Request-Id"))
	}
	for _, bad := range []string{"", "short", "has space", "-leading"} {
		id := getWithID(t, s, cellURL, bad).Header().Get("X-Request-Id")
		if id == bad || !obs.ValidRequestID(id) {
			t.Errorf("request ID for client value %q: got %q, want a fresh valid ID", bad, id)
		}
	}
	// Bad requests are named too — rejection logs join against the ID.
	rec := getWithID(t, s, "/v1/cell?kernel=nope", "client-req-42")
	if rec.Code == http.StatusOK {
		t.Fatal("bogus kernel accepted")
	}
	if rec.Header().Get("X-Request-Id") != "client-req-42" {
		t.Errorf("error response lost the request ID: %q", rec.Header().Get("X-Request-Id"))
	}
}

// TestServerTimingAttribution: the acceptance criterion — a cold cell's
// Server-Timing stages account for the request's wall time to within
// 10%, and a hit's header shows the memory lookup instead of a compute.
func TestServerTimingAttribution(t *testing.T) {
	s := newTest(t, Config{})

	miss := get(t, s, cellURL)
	if miss.Code != http.StatusOK {
		t.Fatalf("cold request: %d: %s", miss.Code, miss.Body.String())
	}
	h := miss.Header().Get("Server-Timing")
	parsed := parseServerTiming(h)
	if parsed == nil {
		t.Fatalf("cold response has no Server-Timing header")
	}
	for _, stage := range []string{"mem", "compile", "measure", "total"} {
		if _, ok := parsed[stage]; !ok {
			t.Errorf("cold Server-Timing %q: missing %s", h, stage)
		}
	}
	total := parsed["total"]
	var sum float64
	for name, ms := range parsed {
		if name != "total" {
			sum += ms
		}
	}
	if total <= 0 || sum < 0.9*total || sum > 1.05*total+0.01 {
		t.Errorf("stage sum %.3fms vs total %.3fms; want within 10%% (%q)", sum, total, h)
	}

	hit := get(t, s, cellURL)
	if hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", hit.Header().Get("X-Cache"))
	}
	hp := parseServerTiming(hit.Header().Get("Server-Timing"))
	if _, ok := hp["mem"]; !ok {
		t.Errorf("hit Server-Timing %v: missing mem stage", hp)
	}
	if _, ok := hp["measure"]; ok {
		t.Errorf("hit Server-Timing %v: claims a measure stage", hp)
	}
	if hp["total"] >= total {
		t.Errorf("hit total %.3fms not faster than cold %.3fms", hp["total"], total)
	}
}

// TestAccessLogLines: with -log-json on, every request — miss, hit, and
// rejection — is one JSON line carrying the request ID from the
// response header, the cache disposition, per-stage milliseconds, and
// (for rejections) the refusing layer.
func TestAccessLogLines(t *testing.T) {
	var buf bytes.Buffer
	s := newTest(t, Config{AccessLog: &buf})

	miss := getWithID(t, s, cellURL, "logged-req-1")
	hit := get(t, s, cellURL)
	rej := httptest.NewRecorder()
	s.ServeHTTP(rej, httptest.NewRequest("POST", "/v1/submit", strings.NewReader("not a program")))
	if miss.Code != 200 || hit.Code != 200 || rej.Code < 400 {
		t.Fatalf("setup: miss=%d hit=%d rej=%d", miss.Code, hit.Code, rej.Code)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	recs := make([]obs.AccessRecord, 3)
	for i, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &recs[i]); err != nil {
			t.Fatalf("line %d does not parse: %v\n%q", i, err, ln)
		}
	}

	if recs[0].RequestID != "logged-req-1" || recs[0].Cache != "miss" || recs[0].Path != "/v1/cell" {
		t.Errorf("miss record = %+v", recs[0])
	}
	if recs[0].StagesMS["measure"] <= 0 {
		t.Errorf("miss record lacks a positive measure stage: %v", recs[0].StagesMS)
	}
	if recs[0].DurationMS <= 0 || recs[0].Status != 200 || recs[0].Bytes <= 0 {
		t.Errorf("miss record incomplete: %+v", recs[0])
	}

	if recs[1].Cache != "hit" || recs[1].RequestID != hit.Header().Get("X-Request-Id") {
		t.Errorf("hit record = %+v, response ID %q", recs[1], hit.Header().Get("X-Request-Id"))
	}
	if _, ok := recs[1].StagesMS["mem"]; !ok {
		t.Errorf("hit record lacks the mem stage: %v", recs[1].StagesMS)
	}

	if recs[2].Method != "POST" || recs[2].Status != rej.Code || recs[2].RejectLayer == "" {
		t.Errorf("reject record = %+v, want POST with a reject_layer", recs[2])
	}
}

// TestCoalescedWaiterRecordsWait: coalesced waiters attribute their time
// to a single wait stage; only the singleflight leader carries the
// compile and measure stages it actually ran.
func TestCoalescedWaiterRecordsWait(t *testing.T) {
	s := newTest(t, Config{})
	gate := make(chan struct{})
	var executions atomic.Int64
	s.computeHook = func(key string) {
		executions.Add(1)
		<-gate
	}

	const n = 6
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, s, cellURL)
		}(i)
	}
	for executions.Load() == 0 {
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	var waiters int
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		timing := parseServerTiming(rec.Header().Get("Server-Timing"))
		switch label := rec.Header().Get("X-Cache"); label {
		case "miss": // the leader
			if _, ok := timing["measure"]; !ok {
				t.Errorf("leader timing %v: missing measure", timing)
			}
			if _, ok := timing["wait"]; ok {
				t.Errorf("leader timing %v: has a wait stage", timing)
			}
		case "coalesced":
			waiters++
			if timing["wait"] < 20 {
				t.Errorf("waiter %d timing %v: wait should cover the %v gate hold", i, timing, 20*time.Millisecond)
			}
			for _, leaderOnly := range []string{"measure", "compile", "queue"} {
				if _, ok := timing[leaderOnly]; ok {
					t.Errorf("waiter %d timing %v: inherited the leader's %s stage", i, timing, leaderOnly)
				}
			}
		}
	}
	if waiters == 0 {
		t.Error("no request was labeled coalesced")
	}
}

// TestShardTracePropagation: one forwarded request is one trace — the
// client's ID appears on the non-owner's response, in both replicas'
// access logs, and the merged Server-Timing shows the local forward
// stage next to the owner's peer_-prefixed stages.
func TestShardTracePropagation(t *testing.T) {
	var logA, logB syncBuffer
	var pa, pb atomic.Pointer[Server]
	front := func(p *atomic.Pointer[Server]) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.Load().ServeHTTP(w, r)
		})
	}
	tsA := httptest.NewServer(front(&pa))
	tsB := httptest.NewServer(front(&pb))
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	peers := []string{tsA.URL, tsB.URL}
	a := newTest(t, Config{Peers: peers, Self: tsA.URL, AccessLog: &logA})
	b := newTest(t, Config{Peers: peers, Self: tsB.URL, AccessLog: &logB})
	pa.Store(a)
	pb.Store(b)

	q := cellOwnedBy(t, a.ring, tsB.URL)
	const id = "hop-trace-req-7"
	rec := getWithID(t, a, q, id)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Shard") != "forwarded" {
		t.Fatalf("forwarded request: %d, X-Shard %q", rec.Code, rec.Header().Get("X-Shard"))
	}
	if got := rec.Header().Get("X-Request-Id"); got != id {
		t.Errorf("forwarded response ID = %q, want %q", got, id)
	}
	timing := parseServerTiming(rec.Header().Get("Server-Timing"))
	if _, ok := timing["forward"]; !ok {
		t.Errorf("merged timing %v: missing the local forward stage", timing)
	}
	var peerStages int
	for name := range timing {
		if strings.HasPrefix(name, "peer_") {
			peerStages++
		}
	}
	if peerStages == 0 || timing["peer_total"] <= 0 {
		t.Errorf("merged timing %v: missing peer_-prefixed owner stages", timing)
	}

	for name, log := range map[string]*syncBuffer{"non-owner": &logA, "owner": &logB} {
		var found bool
		for _, ln := range strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n") {
			var r obs.AccessRecord
			if err := json.Unmarshal([]byte(ln), &r); err != nil {
				t.Fatalf("%s log line %q: %v", name, ln, err)
			}
			found = found || r.RequestID == id
		}
		if !found {
			t.Errorf("%s access log has no record for %q:\n%s", name, id, log.String())
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the shard test's two
// replicas log from different goroutines (the forwarding hop is a real
// HTTP request served elsewhere).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSampledTraceFile: with -trace-sample 1, a /v1/breakdown request
// leaves a Chrome trace-event file named after its request ID, holding
// the serve span tree and the simulator's cycle breakdown overlay in
// one timeline.
func TestSampledTraceFile(t *testing.T) {
	dir := t.TempDir()
	s := newTest(t, Config{TraceDir: dir, TraceSample: 1})
	rec := getWithID(t, s, "/v1/breakdown?kernel=wc&model=full&machine=issue8-br1", "traced-req-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "traced-req-1.trace.json"))
	if err != nil {
		t.Fatalf("sampled trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file does not parse: %v\n%s", err, data)
	}
	names := map[string]bool{}
	var simEvents int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
		if strings.HasPrefix(ev.Name, "sim:") {
			simEvents++
			if ev.Tid != 1 {
				t.Errorf("breakdown event %q on tid %d, want 1", ev.Name, ev.Tid)
			}
		}
	}
	for _, span := range []string{"request", "mem", "measure"} {
		if !names[span] {
			t.Errorf("trace file missing the %s span; events: %v", span, names)
		}
	}
	if simEvents == 0 {
		t.Error("trace file has no sim: cycle-breakdown overlay")
	}
	if n := s.reg.Counter("serve_traces_written").Value(); n != 1 {
		t.Errorf("serve_traces_written = %d, want 1", n)
	}

	// -trace-slow-ms alone: a fast request under the threshold leaves no
	// file, so tracing stays quiet until something is actually slow.
	slowDir := t.TempDir()
	s2 := newTest(t, Config{TraceDir: slowDir, TraceSlowMS: 60000})
	if rec := get(t, s2, cellURL); rec.Code != http.StatusOK {
		t.Fatalf("%d", rec.Code)
	}
	if files, _ := os.ReadDir(slowDir); len(files) != 0 {
		t.Errorf("fast request traced under -trace-slow-ms: %v", files)
	}
}

// TestMetricsHaveStageHistograms: every traced request feeds the
// per-stage serve_stage_<name>_ms histograms and serve_request_ms on
// the fine shared ladder; /metrics renders them with sub-millisecond
// bucket bounds.
func TestMetricsHaveStageHistograms(t *testing.T) {
	s := newTest(t, Config{})
	if rec := get(t, s, cellURL); rec.Code != http.StatusOK {
		t.Fatalf("%d", rec.Code)
	}
	get(t, s, cellURL)

	snap := s.Registry().Snapshot()
	if h, ok := snap.Histograms["serve_request_ms"]; !ok || h.Count != 2 {
		t.Errorf("serve_request_ms count = %+v, want 2 observations", h)
	}
	for _, name := range []string{"serve_stage_mem_ms", "serve_stage_measure_ms"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("%s missing or empty (histograms: %d)", name, len(snap.Histograms))
			continue
		}
		if len(h.Bounds) != len(obs.LatencyBucketsMS) {
			t.Errorf("%s has %d bounds, want the shared ladder's %d", name, len(h.Bounds), len(obs.LatencyBucketsMS))
		}
	}

	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`serve_request_ms_bucket{le="0.05"}`,
		`serve_stage_measure_ms_bucket{le="1000"}`,
		`serve_compute_ms_bucket{le="0.25"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
