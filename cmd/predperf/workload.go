package main

import (
	"errors"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predication/internal/bench"
)

// config is everything a workload run depends on.  The command fills it
// from flags; tests build reduced ones directly.
type config struct {
	seed    int64
	seconds float64 // measured window of the run
	trace   bool    // run traced and report per-layer metrics
	workers int     // batch pools, serve.Config.Workers and client connections
	setups  int     // fewest set-up repetitions; setup_s is their median
	kernels []string
	golden  golden

	// probeKernel's full-predication issue8-br1 artifact is the one the
	// simulator engines replay in the per-layer probe.
	probeKernel string

	// serve_warm's open-loop rate, in requests per second, and the
	// length of its traced run's closed-loop phase as a share of the
	// window.
	warmRate   float64
	saturation float64

	// connState, when set, observes the connections the load generator
	// opens to the in-process server (tests count them).
	connState func(net.Conn, http.ConnState)
}

// defaultConfig is the configuration BENCHMARK.json's runs use.
func defaultConfig(seed int64, seconds float64) *config {
	var kernels []string
	for _, k := range bench.All() {
		kernels = append(kernels, k.Name)
	}
	return &config{
		seed:        seed,
		seconds:     seconds,
		workers:     runtime.GOMAXPROCS(0),
		setups:      3,
		kernels:     kernels,
		probeKernel: "023.eqntott",
		warmRate:    2000,
		saturation:  0.4,
	}
}

// value is one reported metric: the number, its unit and how many
// samples it summarizes.
type value struct {
	V    float64
	Unit string
	N    int
}

// outcome is a finished workload run.
type outcome struct {
	tally
	metrics map[string]value // end-to-end metrics, or per-layer ones when traced
	spans   []span
	self    map[string]float64 // traced runs: self seconds per span name
	// overhead is a traced batch pass's wall time over the same pass
	// untraced (0 where the run has no untraced twin).
	overhead float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]value{}} }

func (o *outcome) set(name string, v float64, unit string, n int) {
	o.metrics[name] = value{v, unit, n}
}

// tally counts operations and the ones that failed, keeping the first few
// failure messages for the log.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErrs []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < 5 {
			t.firstErrs = append(t.firstErrs, err.Error())
		}
	}
}

// forEach runs fn(w, i) for i in [0, n) on min(workers, n) goroutines,
// w being the goroutine's index; jobs are claimed in index order.  It
// returns every error, joined in index order.
func forEach(n, workers int, fn func(w, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(w, i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Set-ups repeat until both n runs and setupWindow have passed, at most
// maxSetups times: a set-up of a millisecond or less needs many samples
// for a steady median, a set-up of seconds only a few.
const (
	setupWindow = 250 * time.Millisecond
	maxSetups   = 50
)

// repeatSetup runs a set-up repeatedly (see setupWindow) and returns the
// last result, the median duration and the number of runs.  Every earlier
// result is released with drop.
func repeatSetup[T any](n int, fn func() (T, error), drop func(T)) (T, float64, int, error) {
	var last T
	var durs []float64
	start := time.Now()
	for i := 0; i < maxSetups && (i < max(1, n) || time.Since(start) < setupWindow); i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(durs), len(durs), nil
}

// batchMetrics reports the end-to-end metrics of a closed-loop batch
// workload: its passes' wall seconds and the peak RSS of each pass.
func batchMetrics(o *outcome, passes, rss []float64, setup float64, setups int) {
	n := len(passes)
	o.set("setup_s", setup, "s", setups)
	o.set("latency_p50_ms", median(passes)*1e3, "ms", n)
	o.set("latency_tail_ms", percentile(passes, tailRank)*1e3, "ms", n)
	o.set("peak_rss_mb", median(rss), "MB", len(rss))
}

// timedPasses runs pass back to back until the next one would end past
// the window (always at least once) and returns each pass's wall seconds
// and peak RSS.
func timedPasses(window float64, pass func() error) (secs, rss []float64, err error) {
	t0 := time.Now()
	for {
		resetPeakRSS()
		start := time.Now()
		if err := pass(); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		rss = append(rss, peakRSSMB())
		if time.Since(t0).Seconds()+median(secs) > window {
			return secs, rss, nil
		}
	}
}

// Per-layer metrics.  Every traced run reports all of them; a layer the
// workload never calls reads 0.
var compileStages = []string{
	"normalize", "profile", "unroll", "superblock-formation", "hyperblock-formation",
	"cleanup", "promotion", "branch-combining", "partial-conversion", "peephole",
	"schedule", "guard-lowering",
}

var serveStages = []string{"mem", "disk", "queue", "wait", "compile", "measure", "render"}

// layerCatalog lists the per-layer metrics and their units in report
// order.
func layerCatalog() []metricDef {
	defs := []metricDef{{Name: "bench.build_s", Unit: "s"}, {Name: "core.compile_s", Unit: "s"}}
	var kernels []string
	for _, k := range bench.All() {
		kernels = append(kernels, k.Name)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		defs = append(defs, metricDef{Name: "core.compile." + k + "_s", Unit: "s"})
	}
	for _, st := range compileStages {
		defs = append(defs, metricDef{Name: "core.stage." + st + "_s", Unit: "s"})
	}
	defs = append(defs,
		metricDef{Name: "core.final_verify_s", Unit: "s"},
		metricDef{Name: "emu.decode_s", Unit: "s"},
		metricDef{Name: "emu.emulate_s", Unit: "s"},
		metricDef{Name: "emu.msteps_per_s", Unit: "M/s"},
		metricDef{Name: "sim.replay_s", Unit: "s"},
		metricDef{Name: "sim.inorder.mev_per_s", Unit: "M/s"},
		metricDef{Name: "sim.ooo32.mev_per_s", Unit: "M/s"},
		metricDef{Name: "sim.gang1.mev_per_s", Unit: "M/s"},
		metricDef{Name: "sim.gang24.lane_mev_per_s", Unit: "M/s"},
		metricDef{Name: "experiments.measure_all_s", Unit: "s"},
		metricDef{Name: "experiments.cpu_util", Unit: "ratio"},
		metricDef{Name: "experiments.encode_artifact_ms_p50", Unit: "ms"},
		metricDef{Name: "experiments.decode_artifact_ms_p50", Unit: "ms"},
		metricDef{Name: "store.put_ms_p50", Unit: "ms"},
		metricDef{Name: "store.put_ms_p99", Unit: "ms"},
		metricDef{Name: "store.get_ms_p50", Unit: "ms"},
		metricDef{Name: "store.get_ms_p99", Unit: "ms"},
	)
	for _, st := range serveStages {
		defs = append(defs, metricDef{Name: "serve.stage." + st + "_ms_p50", Unit: "ms"})
	}
	defs = append(defs,
		metricDef{Name: "serve.hit_frac", Unit: "ratio"},
		metricDef{Name: "serve.disk_frac", Unit: "ratio"},
		metricDef{Name: "serve.miss_count", Unit: "count"},
		metricDef{Name: "serve.coalesced_count", Unit: "count"},
		metricDef{Name: "serve.rejected_count", Unit: "count"},
		metricDef{Name: "serve.saturation_rps", Unit: "1/s"},
		metricDef{Name: "loadgen.timer_lag_p99_ms", Unit: "ms"},
		metricDef{Name: "loadgen.backlog_max", Unit: "count"},
		metricDef{Name: "trace.coverage", Unit: "ratio"},
	)
	for i := range defs {
		defs[i].Better = "lower"
		switch defs[i].Unit {
		case "M/s", "1/s":
			defs[i].Better = "higher"
		case "ratio":
			if defs[i].Name == "experiments.cpu_util" || defs[i].Name == "serve.hit_frac" || defs[i].Name == "trace.coverage" {
				defs[i].Better = "higher"
			}
		}
	}
	return defs
}

// e2eCatalog lists the end-to-end metrics every workload reports.
func e2eCatalog() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	}
}

// tailRank is the percentile latency_tail_ms reports: the middle of the
// slowest 5%.  In serve_cold that group is the predicated eqn compiles
// (12 of 240), whose edge a p95 sits on and jumps across from seed to
// seed; in serve_warm the median of the group shrugs off one stall that a
// mean of it would not; a batch run's slowest pass is its p97.5.
const tailRank = 0.975

// spanLayerMetrics fills the per-layer metrics that come from a traced
// run's spans.
func spanLayerMetrics(o *outcome, spans []span) {
	self := selfTimes(spans)
	o.self = self
	o.set("bench.build_s", sumDur(spans, "bench.build", ""), "s", 0)
	o.set("core.compile_s", sumDur(spans, "core.compile", ""), "s", 0)
	for _, k := range bench.All() {
		o.set("core.compile."+k.Name+"_s", sumDur(spans, "core.compile", k.Name), "s", 0)
	}
	for _, st := range compileStages {
		o.set("core.stage."+st+"_s", sumDur(spans, "core.stage."+st, ""), "s", 0)
	}
	o.set("core.final_verify_s", self["core.compile"], "s", 0)
	o.set("emu.decode_s", sumDur(spans, "emu.decode", ""), "s", 0)
	o.set("emu.emulate_s", sumDur(spans, "emu.emulate", ""), "s", 0)
	o.set("sim.replay_s", sumDur(spans, "sim.replay", ""), "s", 0)
	o.set("experiments.measure_all_s", sumDur(spans, "experiments.measure_all", ""), "s", 0)
}

// fillLayerDefaults reports 0 for every per-layer metric the run did not
// measure, so each traced run prints the full catalog.
func fillLayerDefaults(o *outcome) {
	for _, d := range layerCatalog() {
		if _, ok := o.metrics[d.Name]; !ok {
			o.set(d.Name, 0, d.Unit, 0)
		}
	}
}
