package experiments

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/sim"
)

// TestStreamingMatchesMaterialized is the differential test for the
// streaming data path: for every kernel, one emulation feeds two
// sim.Simulator sinks (issue8-br1 perfect-cache and 64K real-cache) while
// also materializing the legacy []emu.Event trace, and the streamed stats
// must be bit-identical to sim.Simulate over the materialized trace.
func TestStreamingMatchesMaterialized(t *testing.T) {
	target := machine.Issue8Br1()
	cfgs := []machine.Config{machine.Issue8Br1(), machine.Issue8Br1Cache()}
	for _, k := range bench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(target))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			sims := make([]*sim.Simulator, len(cfgs))
			fan := make(emu.FanoutSink, len(cfgs))
			for i, sc := range cfgs {
				sims[i] = sim.NewTiming(c.Prog, sc)
				fan[i] = sims[i]
			}
			run, err := emu.Run(c.Prog, emu.Options{Trace: true, Sink: fan})
			if err != nil {
				t.Fatalf("emulate: %v", err)
			}
			for i, sc := range cfgs {
				streamed := sims[i].Stats()
				materialized := sim.Simulate(c.Prog, run.Trace, sc)
				if streamed != materialized {
					t.Errorf("%s: streaming stats diverge from materialized trace:\nstream: %+v\nslice:  %+v",
						sc.Name, streamed, materialized)
				}
			}
		})
	}
}

// TestSliceSinkMatchesTrace pins that a SliceSink observes exactly the
// events the legacy Trace option records.
func TestSliceSinkMatchesTrace(t *testing.T) {
	k, err := bench.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Build(), core.CondMove, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	var sink emu.SliceSink
	run, err := emu.Run(c.Prog, emu.Options{Trace: true, Sink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Events) != len(run.Trace) {
		t.Fatalf("sink saw %d events, trace recorded %d", len(sink.Events), len(run.Trace))
	}
	for i := range sink.Events {
		if sink.Events[i] != run.Trace[i] {
			t.Fatalf("event %d differs: sink %+v, trace %+v", i, sink.Events[i], run.Trace[i])
		}
	}
}
