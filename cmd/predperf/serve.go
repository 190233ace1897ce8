package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"predication/internal/experiments"
	"predication/internal/serve"
)

// The serve workloads run the load generator in the daemon's process.
// They give the Go scheduler one more processor than the daemon has
// compute workers: with every processor busy compiling, a due request
// would otherwise wait for a preemption tick (up to 10 ms) before the
// generator could send it.

// daemon is one in-process serving daemon on a loopback listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

// boot starts a daemon over storeDir with cfg.workers compute workers and
// waits until /healthz answers client.
func boot(cfg *config, storeDir string, client *http.Client) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: cfg.workers, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = cfg.connState
	ts.Start()
	resp, err := client.Get(ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) // read to EOF so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		ts.Close()
		return nil, err
	}
	return &daemon{srv, ts}, nil
}

// stop drains in-flight requests and closes the listener.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.ts.Close()
	return err
}

// executions reads how many cache-missing computations the daemon ran.
func (d *daemon) executions() int64 {
	return d.srv.Registry().Counter("serve_executions").Value()
}

// bodyCheck validates response bodies against the golden file.  A body is
// decoded and checked the first time its path is served; later responses
// for the path must be byte-identical to it, which keeps checking cheap
// on the hit path.
type bodyCheck struct {
	golden golden
	mu     sync.Mutex
	seen   map[string][]byte
}

func newBodyCheck(g golden) *bodyCheck { return &bodyCheck{golden: g, seen: map[string][]byte{}} }

func (c *bodyCheck) check(r loadRequest, body []byte) error {
	c.mu.Lock()
	prev, ok := c.seen[r.path]
	c.mu.Unlock()
	if ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("%s: body differs from the first response", r.path)
		}
		return nil
	}
	var resp serve.CellResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", r.path, err)
	}
	cell := r.cell
	if resp.Kernel != cell.kernel || resp.Machine.Name != cell.machine || resp.Model != modelOf(cell.model).String() {
		return fmt.Errorf("%s: response is for %s %s %s", r.path, resp.Kernel, resp.Model, resp.Machine.Name)
	}
	k := cellKey{cell.kernel, cell.model, experiments.SchedTarget(mustMachine(cell.machine)).Name, cell.machine}
	if err := c.golden.check(k, resp.Stats, resp.Checksum); err != nil {
		return err
	}
	switch {
	case cell.breakdown && resp.Breakdown == nil:
		return fmt.Errorf("%s: no breakdown", r.path)
	case cell.breakdown && resp.Breakdown.Total() != resp.Stats.Cycles:
		return fmt.Errorf("%s: breakdown totals %d, cycles %d", r.path, resp.Breakdown.Total(), resp.Stats.Cycles)
	case !cell.breakdown && resp.Breakdown != nil:
		return fmt.Errorf("%s: unexpected breakdown", r.path)
	}
	c.mu.Lock()
	c.seen[r.path] = append([]byte(nil), body...)
	c.mu.Unlock()
	return nil
}

// serveCold is the serve_cold workload: a fresh daemon with an empty
// store receives one /v1/cell per kernel × model × scheduling target, with
// seeded Poisson arrivals over the window.  Every request compiles,
// measures and writes through to the store.
func serveCold(cfg *config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers + 1))
	o := newOutcome()
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	type booted struct {
		d   *daemon
		dir string
	}
	b, setup, setups, err := repeatSetup(cfg.setups, func() (booted, error) {
		dir, err := os.MkdirTemp("", "predperf-cold-")
		if err != nil {
			return booted{}, err
		}
		d, err := boot(cfg, dir, client)
		return booted{d, dir}, err
	}, func(b booted) {
		b.d.stop()
		os.RemoveAll(b.dir)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	defer b.d.stop()

	// Every kernel's keys are spread evenly over the window: round r holds
	// each kernel's r-th key (of its keys in seeded order), with the
	// kernels in a seeded order within the round.  Unspread, the seed
	// decides how often the slow eqn compiles pile up on both workers, and
	// that swamps everything else the run measures.
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := make([][]servedCell, len(cfg.kernels))
	for ki, k := range cfg.kernels {
		for _, m := range allModels {
			for _, t := range schedTargets() {
				keys[ki] = append(keys[ki], servedCell{kernel: k, model: m, machine: t.Name})
			}
		}
		rng.Shuffle(len(keys[ki]), func(i, j int) { keys[ki][i], keys[ki][j] = keys[ki][j], keys[ki][i] })
	}
	var cells []servedCell
	for r := range keys[0] {
		for _, ki := range rng.Perm(len(keys)) {
			cells = append(cells, keys[ki][r])
		}
	}
	dues := arrivals(rng, len(cells), time.Duration(cfg.seconds*float64(time.Second)))
	reqs := make([]loadRequest, len(cells))
	for i, c := range cells {
		reqs[i] = loadRequest{dues[i], c.path(), c}
	}

	chk := newBodyCheck(cfg.golden)
	resetPeakRSS()
	cpu0 := cpuTime()
	ph := openLoop(client, b.d.ts.URL, reqs, cfg.workers, chk.check)
	cpu := cpuTime() - cpu0
	for _, r := range ph.results {
		o.record(r.err)
	}
	if cfg.trace {
		tr := newTracer()
		traceRequests(tr, ph)
		serveLayerMetrics(cfg, o, tr, []*phase{ph}, cpu)
		return o, probeLayers(cfg, o, nil)
	}
	serveMetrics(o, ph, setup, setups)
	return o, nil
}

// warmCells is serve_warm's key space: every kernel × model × stock
// machine, as a cell and as a breakdown.
func warmCells(cfg *config) []servedCell {
	var cells []servedCell
	for _, k := range cfg.kernels {
		for _, m := range allModels {
			for _, mc := range stockMachines() {
				for _, bd := range []bool{false, true} {
					cells = append(cells, servedCell{k, m, mc.Name, bd})
				}
			}
		}
	}
	return cells
}

// fillStore serves every cell once through d with cfg.workers concurrent
// requests, checking each body.
func fillStore(cfg *config, d *daemon, client *http.Client, cells []servedCell, chk *bodyCheck) error {
	return forEach(len(cells), cfg.workers, func(_, i int) error {
		var res loadResult
		c := cells[i]
		do(client, d.ts.URL, loadRequest{0, c.path(), c}, time.Now(), &res, chk.check)
		return res.err
	})
}

// serveWarm is the serve_warm workload.  Set-up fills a store through one
// daemon over every key, drains it, and boots a second daemon on the same
// directory.  The measured window then reads only, open loop at a fixed
// rate (cell:breakdown 9:1 over seeded keys).  The first touch of a key is
// a disk hit, later ones memory hits; any miss is a failed request.
func serveWarm(cfg *config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers + 1))
	o := newOutcome()
	dir, err := os.MkdirTemp("", "predperf-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cells := warmCells(cfg)
	chk := newBodyCheck(cfg.golden)
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	t0 := time.Now()
	first, err := boot(cfg, dir, client)
	if err != nil {
		return nil, err
	}
	err = fillStore(cfg, first, client, cells, chk)
	if stopErr := first.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, fmt.Errorf("filling the store: %w", err)
	}
	d, err := boot(cfg, dir, client)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setup := time.Since(t0).Seconds()

	// Requests pick a (kernel, model, machine) uniformly — warmCells lists
	// each one's cell and breakdown side by side — and ask for the
	// breakdown one time in ten.
	rng := rand.New(rand.NewSource(cfg.seed))
	window := time.Duration(cfg.seconds * float64(time.Second))
	n := int(cfg.warmRate * window.Seconds())
	reqs := make([]loadRequest, n)
	for i, due := range arrivals(rng, n, window) {
		c := cells[2*rng.Intn(len(cells)/2)]
		c.breakdown = rng.Intn(10) == 0
		reqs[i] = loadRequest{due, c.path(), c}
	}
	check := func(ph *phase) {
		for _, r := range ph.results {
			if r.err == nil && r.cache == "miss" {
				r.err = fmt.Errorf("%s: miss on the warm daemon", r.reqID)
			}
			o.record(r.err)
		}
	}

	exec0 := d.executions()
	resetPeakRSS()
	cpu0 := cpuTime()
	fixed := openLoop(client, d.ts.URL, reqs, cfg.workers, chk.check)
	cpu := cpuTime() - cpu0
	check(fixed)
	phases := []*phase{fixed}
	if cfg.trace {
		// The traced run adds the most the daemon serves with every
		// client connection busy.
		sat := closedLoop(client, d.ts.URL, reqs, cfg.workers, time.Duration(cfg.saturation*cfg.seconds*float64(time.Second)), chk.check)
		check(sat)
		phases = append(phases, sat)
		o.set("serve.saturation_rps", float64(len(sat.results))/sat.wall().Seconds(), "1/s", len(sat.results))
	}
	if n := d.executions() - exec0; n > 0 {
		o.record(fmt.Errorf("the warm daemon computed %d cells", n))
	}

	if cfg.trace {
		tr := newTracer()
		for _, ph := range phases {
			traceRequests(tr, ph)
		}
		serveLayerMetrics(cfg, o, tr, phases, cpu)
		return o, probeLayers(cfg, o, nil)
	}
	serveMetrics(o, fixed, setup, 1)
	return o, nil
}

// serveMetrics reports a serve workload's end-to-end metrics from its
// open-loop phase, which started with resetPeakRSS.
func serveMetrics(o *outcome, ph *phase, setup float64, setups int) {
	lat := ph.latencies()
	o.set("setup_s", setup, "s", setups)
	o.set("latency_p50_ms", median(lat), "ms", len(lat))
	o.set("latency_tail_ms", percentile(lat, tailRank), "ms", len(lat))
	o.set("peak_rss_mb", peakRSSMB(), "MB", 1)
}

// traceRequests records one span per request, from its due time to the
// end of its body, with a child span per Server-Timing stage laid out
// back to back from the moment it was sent.  The op is the request's
// X-Request-Id.
func traceRequests(tr *tracer, ph *phase) {
	for _, r := range ph.results {
		due := r.done.Add(-r.latency)
		root := tr.add("http.request", r.reqID, -1, 0, due, r.done)
		at := r.sent
		for _, st := range r.stages {
			end := at.Add(time.Duration(st.ms * float64(time.Millisecond)))
			tr.add("serve.stage."+st.name, r.reqID, root, 0, at, end)
			at = end
		}
	}
}

// serveLayerMetrics fills a serve workload's per-layer metrics from its
// phases: Server-Timing stage medians, cache dispositions, refusals, how
// well the load generator kept up, and the share of request latency the
// server's stages account for.
func serveLayerMetrics(cfg *config, o *outcome, tr *tracer, phases []*phase, cpu time.Duration) {
	o.spans = tr.snapshot()
	spanLayerMetrics(o, o.spans)
	stages := map[string][]float64{}
	var n, hits, disk, miss, coalesced, rejected int
	var lags []float64
	var backlog int64
	var wall time.Duration
	var staged, latency float64
	for _, ph := range phases {
		backlog = max(backlog, ph.backlogMax())
		wall += ph.wall()
		for _, r := range ph.results {
			n++
			lags = append(lags, ms(r.lag))
			latency += ms(r.latency)
			for _, st := range r.stages {
				stages[st.name] = append(stages[st.name], st.ms)
				staged += st.ms
			}
			switch r.cache {
			case "hit":
				hits++
			case "disk":
				disk++
			case "miss":
				miss++
			case "coalesced":
				coalesced++
			}
			if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
				rejected++
			}
		}
	}
	for _, st := range serveStages {
		o.set("serve.stage."+st+"_ms_p50", median(stages[st]), "ms", len(stages[st]))
	}
	o.set("serve.hit_frac", float64(hits)/float64(n), "ratio", n)
	o.set("serve.disk_frac", float64(disk)/float64(n), "ratio", n)
	o.set("serve.miss_count", float64(miss), "count", n)
	o.set("serve.coalesced_count", float64(coalesced), "count", n)
	o.set("serve.rejected_count", float64(rejected), "count", n)
	o.set("loadgen.timer_lag_p99_ms", percentile(lags, 0.99), "ms", len(lags))
	o.set("loadgen.backlog_max", float64(backlog), "count", 1)
	o.set("experiments.cpu_util", cpu.Seconds()/(phases[0].wall().Seconds()*float64(cfg.workers)), "ratio", 1)
	o.set("trace.coverage", staged/latency, "ratio", n)
	fillLayerDefaults(o)
}
