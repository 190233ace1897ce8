package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"predication/internal/bench"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/serve"
	"predication/internal/sim"
	"predication/internal/store"
)

// The per-layer probe times single layers on fixed inputs, after a traced
// run, through the same public calls the workloads make: emulation into a
// discarding sink, each simulator engine replaying one recorded stream,
// the artifact codec, and the disk store.  Its inputs are the serving
// API's artifacts — every kernel × 4 models × 4 scheduling targets — of
// which the caller passes the ones it already compiled.

// discardSink is the emulator sink that keeps nothing, so emulation is
// timed alone.
type discardSink struct{}

func (discardSink) Event(emu.Event)        {}
func (discardSink) EventBatch([]emu.Event) {}

// probeWindow is how long each simulator engine replays the recorded
// stream; engines repeat the replay until it has passed.
const probeWindow = 300 * time.Millisecond

func probeLayers(cfg *config, o *outcome, have map[artKey]*experiments.CellArtifact) error {
	arts, keys, err := serveArtifacts(cfg, have)
	if err != nil {
		return err
	}

	// Emulation alone, over every artifact.
	var steps int64
	t0 := time.Now()
	for _, k := range keys {
		run, err := arts[k].Code.Run(emu.Options{Sink: discardSink{}})
		if err != nil {
			return fmt.Errorf("probe: %v: %w", k, err)
		}
		steps += run.Steps
		o.record(checkSum(k, run.Word(bench.CheckAddr), referenceSum(cfg, k.kernel)))
	}
	o.set("emu.msteps_per_s", float64(steps)/time.Since(t0).Seconds()/1e6, "M/s", len(keys))

	if err := probeEngines(cfg, o, arts); err != nil {
		return err
	}
	return probeCodecAndStore(o, arts, keys)
}

func checkSum(k artKey, got, want int64) error {
	if got != want {
		return fmt.Errorf("%v: checksum %d, golden %d", k, got, want)
	}
	return nil
}

// serveArtifacts returns the probe's artifacts in a fixed order,
// compiling the ones have lacks.
func serveArtifacts(cfg *config, have map[artKey]*experiments.CellArtifact) (map[artKey]*experiments.CellArtifact, []artKey, error) {
	arts := map[artKey]*experiments.CellArtifact{}
	var keys, missing []artKey
	for _, kn := range cfg.kernels {
		for _, m := range allModels {
			for _, t := range schedTargets() {
				k := artKey{kn, m, t.Name}
				keys = append(keys, k)
				if a := have[k]; a != nil {
					arts[k] = a
				} else {
					missing = append(missing, k)
				}
			}
		}
	}
	compiled := make([]*experiments.CellArtifact, len(missing))
	err := forEach(len(missing), cfg.workers, func(_, i int) error {
		k := missing[i]
		var err error
		compiled[i], err = experiments.CompileCell(k.kernel, modelOf(k.model), mustMachine(k.target))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for i, k := range missing {
		arts[k] = compiled[i]
	}
	return arts, keys, nil
}

// probeEngines records one artifact's event stream and replays it on each
// engine in 512-event batches: the in-order and 32-entry out-of-order
// models (sim.NewTiming), a one-lane gang and the design sweep's 24-lane
// gang.  Every replay's statistics are checked against the golden file.
func probeEngines(cfg *config, o *outcome, arts map[artKey]*experiments.CellArtifact) error {
	k := artKey{cfg.probeKernel, "full", "issue8-br1"}
	art := arts[k]
	if art == nil {
		return fmt.Errorf("probe: no artifact for %v", k)
	}
	var buf bufferSink
	run, err := art.Code.Run(emu.Options{Sink: &buf})
	if err != nil {
		return err
	}
	sum := run.Word(bench.CheckAddr)
	prog := art.Compiled.Prog
	ooo, err := experiments.ApplyWindow(machine.Issue8Br1(), "32")
	if err != nil {
		return err
	}
	lanes := sweepLanes()
	engines := []struct {
		metric string
		cfgs   []machine.Config
		make   func() (emu.BatchSink, func(i int) sim.Stats)
	}{
		{"sim.inorder.mev_per_s", []machine.Config{machine.Issue8Br1()}, func() (emu.BatchSink, func(int) sim.Stats) {
			s := sim.NewTiming(prog, machine.Issue8Br1())
			return s, func(int) sim.Stats { return s.Stats() }
		}},
		{"sim.ooo32.mev_per_s", []machine.Config{ooo}, func() (emu.BatchSink, func(int) sim.Stats) {
			s := sim.NewTiming(prog, ooo)
			return s, func(int) sim.Stats { return s.Stats() }
		}},
		{"sim.gang1.mev_per_s", []machine.Config{machine.Issue8Br1()}, func() (emu.BatchSink, func(int) sim.Stats) {
			g := sim.NewGang(prog, []machine.Config{machine.Issue8Br1()})
			return g, g.Stats
		}},
		{"sim.gang24.lane_mev_per_s", lanes, func() (emu.BatchSink, func(int) sim.Stats) {
			g := sim.NewGang(prog, lanes)
			return g, g.Stats
		}},
	}
	for _, e := range engines {
		reps := 0
		t0 := time.Now()
		for reps == 0 || time.Since(t0) < probeWindow {
			s, stats := e.make()
			replay(s, buf.evs)
			if reps == 0 {
				for i, c := range e.cfgs {
					o.record(cfg.golden.check(cellKey{k.kernel, k.model, k.target, c.Name}, stats(i), sum))
				}
			}
			reps++
		}
		events := float64(len(buf.evs)) * float64(reps*len(e.cfgs))
		o.set(e.metric, events/time.Since(t0).Seconds()/1e6, "M/s", reps)
	}
	return nil
}

// probeCodecAndStore times EncodeArtifact and DecodeArtifact on every
// artifact, then Put and Get of the encoded records on a fresh store.
func probeCodecAndStore(o *outcome, arts map[artKey]*experiments.CellArtifact, keys []artKey) error {
	var enc, dec, put, get []float64
	data := make([][]byte, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		b, err := experiments.EncodeArtifact(arts[k])
		enc = append(enc, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		data[i] = b
		t0 = time.Now()
		back, err := experiments.DecodeArtifact(b)
		dec = append(dec, ms(time.Since(t0)))
		if err != nil {
			o.record(fmt.Errorf("%v: decode: %w", k, err))
			continue
		}
		o.record(sameArtifact(k, arts[k], back))
	}
	o.set("experiments.encode_artifact_ms_p50", median(enc), "ms", len(enc))
	o.set("experiments.decode_artifact_ms_p50", median(dec), "ms", len(dec))

	dir, err := os.MkdirTemp("", "predperf-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	skeys := make([]string, len(keys))
	for i, k := range keys {
		skeys[i] = serve.ArtifactKey(k.kernel, modelOf(k.model), mustMachine(k.target))
		t0 := time.Now()
		err := st.Put(skeys[i], data[i])
		put = append(put, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	for i := range keys {
		t0 := time.Now()
		b, ok := st.Get(skeys[i])
		get = append(get, ms(time.Since(t0)))
		var err error
		if !ok || !bytes.Equal(b, data[i]) {
			err = fmt.Errorf("%v: store get returned other bytes", keys[i])
		}
		o.record(err)
	}
	o.set("store.put_ms_p50", median(put), "ms", len(put))
	o.set("store.put_ms_p99", percentile(put, 0.99), "ms", len(put))
	o.set("store.get_ms_p50", median(get), "ms", len(get))
	o.set("store.get_ms_p99", percentile(get, 0.99), "ms", len(get))
	return nil
}

// sameArtifact checks a decoded artifact against the one encoded: same
// coordinates and the same decoded program size.
func sameArtifact(k artKey, a, b *experiments.CellArtifact) error {
	if a.Kernel != b.Kernel || a.Model != b.Model || a.Target.Name != b.Target.Name || a.Code.NumUops() != b.Code.NumUops() {
		return fmt.Errorf("%v: decoded artifact differs from the encoded one", k)
	}
	return nil
}
