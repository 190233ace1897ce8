package main

import (
	"fmt"
	"sync"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
)

// paperSuite is the paper_suite workload: back-to-back passes of
// experiments.Run over the paper's matrix plus the table rendering
// cmd/figures does.  Set-up builds every kernel and checks its reference
// run against the golden checksums.
func paperSuite(cfg *config) (*outcome, error) {
	o := newOutcome()
	_, setup, setups, err := repeatSetup(cfg.setups, func() (struct{}, error) {
		return struct{}{}, checkReferences(cfg)
	}, nil)
	if err != nil {
		return nil, err
	}
	pass := func() error { return runSuitePass(cfg, &o.tally) }
	if cfg.trace {
		return paperSuiteTraced(cfg, o, pass)
	}
	passes, rss, err := timedPasses(cfg.seconds, pass)
	if err != nil {
		return nil, err
	}
	batchMetrics(o, passes, rss, setup, setups)
	return o, nil
}

// checkReferences runs every kernel's uncompiled program and compares its
// checksum with the golden one.
func checkReferences(cfg *config) error {
	for _, name := range cfg.kernels {
		got, err := runReference(nil, -1, 0, name)
		if err != nil {
			return err
		}
		if err := checkSum(artKey{name, "reference", ""}, got, referenceSum(cfg, name)); err != nil {
			return err
		}
	}
	return nil
}

// referenceSum is a kernel's golden checksum; every compiled cell of the
// kernel computes the same one.
func referenceSum(cfg *config, kernel string) int64 {
	return cfg.golden[cellKey{kernel, "superblock", "issue1", "issue1"}].Checksum
}

// runReference builds, decodes and emulates a kernel's uncompiled program
// and returns its checksum, with a span around each call when tr is set.
func runReference(tr *tracer, parent, lane int, name string) (int64, error) {
	op := name + " reference"
	sp := tr.begin("bench.build", op, parent, lane)
	k, err := bench.ByName(name)
	if err != nil {
		return 0, err
	}
	prog := k.Build()
	tr.end(sp)
	sp = tr.begin("emu.decode", op, parent, lane)
	code, err := emu.Decode(prog)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: decode: %w", op, err)
	}
	sp = tr.begin("emu.emulate", op, parent, lane)
	run, err := code.Run(emu.Options{})
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", op, err)
	}
	return run.Word(bench.CheckAddr), nil
}

// runSuitePass is one paper_suite pass: the suite run, the tables, and a
// golden check of every result the matrix should hold.
func runSuitePass(cfg *config, t *tally) error {
	suite, err := experiments.Run(experiments.Options{Kernels: cfg.kernels, Parallel: cfg.workers})
	if err != nil {
		return err
	}
	for _, tab := range suite.AllTables() {
		_ = tab.String()
	}
	results := map[string]*experiments.BenchResult{}
	for _, r := range suite.Results {
		results[r.Name] = r
	}
	for _, c := range paperCells(cfg.kernels) {
		r := results[c.kernel]
		for _, m := range experiments.SimsFor(c.target) {
			k := cellKey{c.kernel, c.model, c.target.Name, m.Name}
			if r == nil || !r.Has(modelOf(c.model), m.Name) {
				t.record(fmt.Errorf("%s: missing from the suite", k))
				continue
			}
			t.record(cfg.golden.check(k, r.Stat(modelOf(c.model), m.Name), r.Checksum))
		}
	}
	return nil
}

// paperSuiteTraced is paper_suite's per-layer run.  experiments.Run cannot
// be split from outside, so after one untraced suite pass (for the pool's
// CPU utilisation) the same cells are replayed step by step through the
// public calls — build, compile, decode, emulate into a buffer, replay on
// the cell's sibling machines — once untraced and once traced, which gives
// the tracing overhead.
func paperSuiteTraced(cfg *config, o *outcome, pass func() error) (*outcome, error) {
	cpu0, t0 := cpuTime(), time.Now()
	if err := pass(); err != nil {
		return nil, err
	}
	o.set("experiments.cpu_util", (cpuTime()-cpu0).Seconds()/(time.Since(t0).Seconds()*float64(cfg.workers)), "ratio", 1)

	_, base, err := replayPass(cfg, nil, &o.tally)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	arts, wall, err := replayPass(cfg, tr, &o.tally)
	if err != nil {
		return nil, err
	}
	o.spans = tr.snapshot()
	spanLayerMetrics(o, o.spans)
	o.set("trace.coverage", layerCoverage(o.spans, 0, wall, cfg.workers), "ratio", 1)
	o.overhead = wall.Seconds() / base.Seconds()
	if err := probeLayers(cfg, o, arts); err != nil {
		return nil, err
	}
	fillLayerDefaults(o)
	return o, nil
}

// bufferSink records the emulator's event stream for replay.
type bufferSink struct{ evs []emu.Event }

func (b *bufferSink) Event(ev emu.Event)         { b.evs = append(b.evs, ev) }
func (b *bufferSink) EventBatch(evs []emu.Event) { b.evs = append(b.evs, evs...) }

// replay feeds a recorded stream to a simulator in the emulator's own
// batch size.
func replay(s emu.BatchSink, evs []emu.Event) {
	for i := 0; i < len(evs); i += 512 {
		s.EventBatch(evs[i:min(i+512, len(evs))])
	}
}

// replayPass runs paper_suite's cells and reference runs step by step on
// cfg.workers goroutines, recording a span around every public call when
// tr is set.  It returns the compiled artifacts and the pass's wall time.
func replayPass(cfg *config, tr *tracer, t *tally) (map[artKey]*experiments.CellArtifact, time.Duration, error) {
	cells := paperCells(cfg.kernels)
	arts := make([]*experiments.CellArtifact, len(cells))
	bufs := make([]bufferSink, cfg.workers)
	start := time.Now()
	err := forEach(len(cfg.kernels)+len(cells), cfg.workers, func(w, i int) error {
		if i < len(cfg.kernels) {
			name := cfg.kernels[i]
			job := tr.begin("job", name+" reference", -1, w)
			defer tr.end(job)
			got, err := runReference(tr, job, w, name)
			if err != nil {
				return err
			}
			t.record(checkSum(artKey{name, "reference", ""}, got, referenceSum(cfg, name)))
			return nil
		}
		c := cells[i-len(cfg.kernels)]
		op := c.kernel + " " + c.model + " " + c.target.Name
		job := tr.begin("job", op, -1, w)
		defer tr.end(job)
		art, err := compileTraced(tr, job, w, c.kernel, c.model, c.target)
		if err != nil {
			return err
		}
		arts[i-len(cfg.kernels)] = art
		buf := &bufs[w]
		buf.evs = buf.evs[:0]
		sp := tr.begin("emu.emulate", op, job, w)
		run, err := art.Code.Run(emu.Options{Sink: buf})
		tr.end(sp)
		if err != nil {
			return err
		}
		sibs := experiments.SimsFor(c.target)
		sp = tr.begin("sim.replay", op, job, w)
		g := sim.NewGang(art.Compiled.Prog, sibs)
		replay(g, buf.evs)
		tr.end(sp)
		for li, m := range sibs {
			t.record(cfg.golden.check(cellKey{c.kernel, c.model, c.target.Name, m.Name}, g.Stats(li), run.Word(bench.CheckAddr)))
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out := map[artKey]*experiments.CellArtifact{}
	for i, c := range cells {
		out[artKey{c.kernel, c.model, c.target.Name}] = arts[i]
	}
	return out, wall, nil
}

// artKey names one compiled artifact.
type artKey struct{ kernel, model, target string }

// compileTraced is experiments.CompileCell done through its public parts,
// so a traced run sees build, compile (with one child span per pipeline
// stage, from the compile's obs.PipelineTrace) and decode separately.
func compileTraced(tr *tracer, parent, lane int, kernel, model string, target machine.Config) (*experiments.CellArtifact, error) {
	op := kernel + " " + model + " " + target.Name
	sp := tr.begin("bench.build", op, parent, lane)
	k, err := bench.ByName(kernel)
	if err != nil {
		return nil, err
	}
	prog := k.Build()
	tr.end(sp)

	opts := core.DefaultOptions(target)
	var pt *obs.PipelineTrace
	if tr != nil {
		pt = obs.NewPipelineTrace()
		opts.Pipeline = pt
	}
	t0 := time.Now()
	c, err := core.Compile(prog, modelOf(model), opts)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	csp := tr.add("core.compile", op, parent, lane, t0, t1)
	if pt != nil {
		at := t0
		for _, st := range pt.Stages {
			end := at.Add(time.Duration(st.WallSeconds * float64(time.Second)))
			tr.add("core.stage."+st.Stage, op, csp, lane, at, end)
			at = end
		}
	}

	sp = tr.begin("emu.decode", op, parent, lane)
	code, err := emu.Decode(c.Prog)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: decode: %w", op, err)
	}
	return &experiments.CellArtifact{Kernel: kernel, Model: modelOf(model), Target: target, Compiled: c, Code: code}, nil
}

// designSweep is the design_sweep workload: set-up compiles the paper's
// 150 cells; each pass measures every artifact on 24 machines in one
// emulation (CellArtifact.MeasureAll) across cfg.workers goroutines.
func designSweep(cfg *config) (*outcome, error) {
	o := newOutcome()
	cells := paperCells(cfg.kernels)
	lanes := sweepLanes()
	compile := func(tr *tracer) ([]*experiments.CellArtifact, error) {
		arts := make([]*experiments.CellArtifact, len(cells))
		err := forEach(len(cells), cfg.workers, func(w, i int) error {
			c := cells[i]
			var err error
			if tr == nil {
				arts[i], err = experiments.CompileCell(c.kernel, modelOf(c.model), c.target)
			} else {
				job := tr.begin("job", c.kernel+" "+c.model+" "+c.target.Name, -1, w)
				arts[i], err = compileTraced(tr, job, w, c.kernel, c.model, c.target)
				tr.end(job)
			}
			return err
		})
		return arts, err
	}
	// Cells whose compile varies have no golden stats; across passes each
	// must still measure as it did the first time.
	var mu sync.Mutex
	first := map[cellKey]sim.Stats{}
	check := func(k cellKey, m *experiments.Measurement) error {
		if err := cfg.golden.check(k, m.Stats, m.Checksum); err != nil || cfg.golden[k].Pinned {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := first[k]; ok && prev != m.Stats {
			return fmt.Errorf("%s: stats %+v, earlier pass %+v", k, m.Stats, prev)
		}
		first[k] = m.Stats
		return nil
	}
	measure := func(arts []*experiments.CellArtifact, tr *tracer) error {
		return forEach(len(arts), cfg.workers, func(w, i int) error {
			c := cells[i]
			op := c.kernel + " " + c.model + " " + c.target.Name
			sp := tr.begin("experiments.measure_all", op, -1, w)
			ms, err := arts[i].MeasureAll(lanes, false)
			tr.end(sp)
			if err != nil {
				return err
			}
			for li, m := range lanes {
				o.record(check(cellKey{c.kernel, c.model, c.target.Name, m.Name}, ms[li]))
			}
			return nil
		})
	}

	if cfg.trace {
		tr := newTracer()
		arts, err := compile(tr)
		if err != nil {
			return nil, err
		}
		cpu0, t0 := cpuTime(), time.Now()
		if err := measure(arts, nil); err != nil {
			return nil, err
		}
		base := time.Since(t0)
		o.set("experiments.cpu_util", (cpuTime()-cpu0).Seconds()/(base.Seconds()*float64(cfg.workers)), "ratio", 1)
		passStart := time.Now()
		if err := measure(arts, tr); err != nil {
			return nil, err
		}
		wall := time.Since(passStart)
		o.spans = tr.snapshot()
		spanLayerMetrics(o, o.spans)
		o.set("trace.coverage", layerCoverage(o.spans, tr.at(passStart), wall, cfg.workers), "ratio", 1)
		o.overhead = wall.Seconds() / base.Seconds()
		m := map[artKey]*experiments.CellArtifact{}
		for i, c := range cells {
			m[artKey{c.kernel, c.model, c.target.Name}] = arts[i]
		}
		if err := probeLayers(cfg, o, m); err != nil {
			return nil, err
		}
		fillLayerDefaults(o)
		return o, nil
	}

	arts, setup, setups, err := repeatSetup(cfg.setups, func() ([]*experiments.CellArtifact, error) { return compile(nil) }, nil)
	if err != nil {
		return nil, err
	}
	passes, rss, err := timedPasses(cfg.seconds, func() error { return measure(arts, nil) })
	if err != nil {
		return nil, err
	}
	batchMetrics(o, passes, rss, setup, setups)
	return o, nil
}
