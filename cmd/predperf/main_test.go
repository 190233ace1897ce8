package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testConfig is a reduced configuration: two small kernels, a one-second
// window, one set-up, and a low warm rate.
func testConfig(t *testing.T) *config {
	t.Helper()
	g, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(7, 1)
	cfg.kernels = []string{"wc", "cmp"}
	cfg.probeKernel = "wc"
	cfg.golden = g
	cfg.setups = 1
	cfg.workers = 2
	cfg.warmRate = 200
	t.Setenv("TMPDIR", t.TempDir())
	return cfg
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, _, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The metric catalogs the code reports must be exactly the ones
// BENCHMARK.json lists, with the same units and directions.
func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	sp := testSpec(t)
	for _, c := range []struct {
		name      string
		code, doc []metricDef
	}{{"end_to_end", e2eCatalog(), sp.EndToEnd}, {"per_layer", layerCatalog(), sp.PerLayer}} {
		if len(c.code) != len(c.doc) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", c.name, len(c.code), len(c.doc))
			continue
		}
		for i := range c.code {
			got, want := c.code[i], c.doc[i]
			if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", c.name, i, got, want)
			}
		}
	}
	for _, w := range sp.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloadFuncs) {
		t.Errorf("%d workloads implemented, %d in BENCHMARK.json", len(workloadFuncs), len(sp.Workloads))
	}
}

// Every workload, untraced and traced, prints every metric BENCHMARK.json
// lists for that mode with its unit, and a correct result line.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	sp := testSpec(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t)
			cfg.trace = traced
			var out, errOut bytes.Buffer
			if code := runWorkload(sp, w.Name, cfg, "", &out, &errOut); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s", w.Name, traced, code, errOut.String())
			}
			defs := sp.EndToEnd
			if traced {
				defs = sp.PerLayer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, d := range defs {
				found := false
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
						found = true
					}
				}
				if !found {
					t.Errorf("%s traced=%v: no line for %s in %s", w.Name, traced, d.Name, d.Unit)
				}
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result %+v", w.Name, traced, res)
			}
			for _, d := range defs {
				if v := res.Metrics[d.Name]; !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// One wrong golden line makes the operations that read it fail, the
// result incorrect, and the exit code non-zero.
func TestPerturbedGoldenFails(t *testing.T) {
	sp := testSpec(t)
	cfg := testConfig(t)
	perturbed := golden{}
	for k, e := range cfg.golden {
		perturbed[k] = e
	}
	k := cellKey{"wc", "superblock", "issue8-br1", "issue8-br1"}
	e := perturbed[k]
	if !e.Pinned {
		t.Fatalf("%s is not pinned", k)
	}
	e.Stats.Cycles++
	perturbed[k] = e
	cfg.golden = perturbed
	var out, errOut bytes.Buffer
	if code := runWorkload(sp, "paper_suite", cfg, "", &out, &errOut); code == 0 {
		t.Fatalf("exit 0 with a perturbed golden line")
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Errorf("result %+v, want failures", res)
	}
	if !strings.Contains(errOut.String(), k.String()) {
		t.Errorf("stderr does not name the failing cell:\n%s", errOut.String())
	}
}

// An open-loop request's latency counts from its due time: when the one
// client worker stalls 50 ms on the first request, the requests due
// meanwhile wait, and their latency shows it although their own service
// is fast.
func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(50 * time.Millisecond) })
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	var reqs []loadRequest
	for i := 0; i < 5; i++ {
		reqs = append(reqs, loadRequest{due: time.Duration(i) * 2 * time.Millisecond, path: "/"})
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	ph := openLoop(client, ts.URL, reqs, 1, func(loadRequest, []byte) error { return nil })
	for i, r := range ph.results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		service := r.done.Sub(r.sent)
		if i > 0 && (r.latency < 40*time.Millisecond || service > 30*time.Millisecond) {
			t.Errorf("request %d: latency %v, service %v; want latency ≥ 40ms from the stall, fast service", i, r.latency, service)
		}
	}
	if ph.backlogMax() < 3 {
		t.Errorf("backlog max %d, want the queued requests counted", ph.backlogMax())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"same runs", lower, steady, steady, noWorse},
		{"within the bound", lower, steady, scale(steady, 1.05), noWorse},
		{"past the bound", lower, steady, scale(steady, 1.2), worse},
		{"faster in every pair", lower, steady, scale(steady, 0.8), improved},
		{"higher is better, dropped", higher, steady, scale(steady, 0.8), worse},
		{"higher is better, rose", higher, steady, scale(steady, 1.2), improved},
		{"spread wider than the bound", lower, noisy, scale(noisy, 0.97), unresolved},
		{"wide spread, every head run better", lower, noisy, scale(noisy, 0.3), improved},
		{"no runs", lower, nil, steady, unresolved},
	} {
		if got := verdict(c.d, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// A higher failed share makes the comparison fail even when every metric
// holds.
func TestCompareFailsOnMoreFailures(t *testing.T) {
	sp := &spec{Workloads: []workload{{Name: "w"}}, EndToEnd: []metricDef{{Name: "m", Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(failed int64) *runFile {
		rf := &runFile{}
		for i := 0; i < 3; i++ {
			rf.Runs = append(rf.Runs, runRecord{"w", int64(i), &result{Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"m": {10, "ms"}}}})
		}
		return rf
	}
	if !printCompare(io.Discard, sp, run(0), run(0)) {
		t.Error("identical runs compared as a regression")
	}
	if printCompare(io.Discard, sp, run(0), run(1)) {
		t.Error("more failed operations compared as no regression")
	}
}

// The load generator never holds more connections to the daemon than
// there are client workers (nproc in the benchmark's configuration).
func TestClientConnectionsBounded(t *testing.T) {
	sp := testSpec(t)
	cfg := testConfig(t)
	var mu sync.Mutex
	conns := map[string]int{} // per daemon (listener address)
	cfg.connState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns[c.LocalAddr().String()]++
			mu.Unlock()
		}
	}
	for _, w := range []string{"serve_cold", "serve_warm"} {
		var out, errOut bytes.Buffer
		if code := runWorkload(sp, w, cfg, "", &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, code, errOut.String())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) == 0 {
		t.Fatal("no connections observed")
	}
	for addr, n := range conns {
		if n > cfg.workers {
			t.Errorf("daemon %s: %d connections, want at most %d", addr, n, cfg.workers)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.format(); got != goldenText {
		t.Error("parse then format changes the golden file")
	}
}
