package sim

import (
	"testing"
	"unsafe"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
)

// gangConfigs is the parity matrix: every stock machine configuration
// plus gshare variants, so lanes carry heterogeneous cache geometry
// (perfect, 64K) and heterogeneous predictor state (BTB, gshare) in one
// gang.
func gangConfigs() []machine.Config {
	cfgs := []machine.Config{
		machine.Issue1(),
		machine.Issue4Br1(),
		machine.Issue8Br1(),
		machine.Issue8Br2(),
		machine.Issue8Br1Cache(),
		machine.Issue1Cache(),
	}
	gsh := machine.Issue8Br1()
	gsh.Name = "issue8-br1+gshare"
	gsh.Gshare = true
	gshCache := machine.Issue8Br1Cache()
	gshCache.Name = "issue8-br1-64k+gshare"
	gshCache.Gshare = true
	return append(cfgs, gsh, gshCache)
}

// feedGang drives the trace through the gang in uneven batch sizes so
// partial chunks and chunk-boundary state carry are exercised, not just
// the steady-state 512-event case.
func feedGang(g *Gang, trace []emu.Event) {
	sizes := []int{1, 7, 512, 513, 100000}
	for i, n := 0, 0; i < len(trace); i += n {
		n = sizes[0]
		sizes = append(sizes[1:], n)
		if i+n > len(trace) {
			n = len(trace) - i
		}
		g.EventBatch(trace[i : i+n])
	}
}

// TestGangParityMatrix is the tentpole's central guarantee: every gang
// lane's Stats are bit-identical to a per-config Simulator fed the same
// trace, across every kernel, compilation model, and machine
// configuration (including heterogeneous cache and predictor lanes).
func TestGangParityMatrix(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	cfgs := gangConfigs()
	target := machine.Issue8Br1()
	for _, k := range kernels {
		for _, model := range models {
			c, err := core.Compile(k.Build(), model, core.DefaultOptions(target))
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", k.Name, model, err)
			}
			res, err := emu.Run(c.Prog, emu.Options{Trace: true})
			if err != nil {
				t.Fatalf("%s/%v: emulate: %v", k.Name, model, err)
			}
			g := NewGang(c.Prog, cfgs)
			feedGang(g, res.Trace)
			for i, cfg := range cfgs {
				want := Simulate(c.Prog, res.Trace, cfg)
				if got := g.Stats(i); got != want {
					t.Errorf("%s/%v @ %s: gang lane diverges from Simulator:\n  lane %+v\n  ref  %+v",
						k.Name, model, cfg.Name, got, want)
				}
			}
		}
	}
}

// TestGangObservedMatrix instruments every lane and checks that (a) the
// instrumented lanes stay Stats-identical to the per-config simulator
// and (b) every lane's breakdown decomposes its cycles exactly —
// sum(Breakdown) == Cycles, sum(Fetched) == Instrs — matching the
// per-config observed simulator's account field for field.
func TestGangObservedMatrix(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	cfgs := gangConfigs()
	target := machine.Issue8Br1()
	for _, k := range kernels {
		for _, model := range models {
			c, err := core.Compile(k.Build(), model, core.DefaultOptions(target))
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", k.Name, model, err)
			}
			res, err := emu.Run(c.Prog, emu.Options{Trace: true})
			if err != nil {
				t.Fatalf("%s/%v: emulate: %v", k.Name, model, err)
			}
			g := NewGang(c.Prog, cfgs)
			accts := make([]obs.CycleAccount, len(cfgs))
			for i := range cfgs {
				g.Instrument(i, &accts[i])
			}
			feedGang(g, res.Trace)
			for i, cfg := range cfgs {
				st := g.Stats(i)
				refSt, refAcct := simulateObserved(c.Prog, res.Trace, cfg)
				if st != refSt {
					t.Errorf("%s/%v @ %s: instrumented gang lane diverges:\n  lane %+v\n  ref  %+v",
						k.Name, model, cfg.Name, st, refSt)
				}
				if err := accts[i].Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
					t.Errorf("%s/%v @ %s: %v\n  breakdown %v",
						k.Name, model, cfg.Name, err, accts[i].Breakdown)
				}
				if accts[i] != *refAcct {
					t.Errorf("%s/%v @ %s: gang account diverges from per-config account:\n  lane %+v\n  ref  %+v",
						k.Name, model, cfg.Name, accts[i], *refAcct)
				}
			}
		}
	}
}

// TestGangMixedInstrumentation pins the per-lane dispatch: instrumenting
// one lane must not perturb its uninstrumented gang-mates.
func TestGangMixedInstrumentation(t *testing.T) {
	k := bench.All()[0]
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(c.Prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []machine.Config{machine.Issue8Br1(), machine.Issue1(), machine.Issue8Br1Cache()}
	g := NewGang(c.Prog, cfgs)
	var a obs.CycleAccount
	g.Instrument(1, &a)
	if g.Account(1) != &a || g.Account(0) != nil {
		t.Fatal("Account does not reflect per-lane instrumentation")
	}
	feedGang(g, res.Trace)
	for i, cfg := range cfgs {
		if got, want := g.Stats(i), Simulate(c.Prog, res.Trace, cfg); got != want {
			t.Errorf("lane %d (%s): %+v != %+v", i, cfg.Name, got, want)
		}
	}
	st := g.Stats(1)
	if err := a.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Error(err)
	}
}

// TestGangSingleEvent pins the TraceSink wrapper: one-event feeding is
// Stats-identical to batch feeding.
func TestGangSingleEvent(t *testing.T) {
	k := bench.All()[0]
	c, err := core.Compile(k.Build(), core.Superblock, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(c.Prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []machine.Config{machine.Issue8Br1(), machine.Issue8Br1Cache()}
	g := NewGang(c.Prog, cfgs)
	for _, ev := range res.Trace {
		g.Event(ev)
	}
	for i, cfg := range cfgs {
		if got, want := g.Stats(i), Simulate(c.Prog, res.Trace, cfg); got != want {
			t.Errorf("lane %d (%s): %+v != %+v", i, cfg.Name, got, want)
		}
	}
}

// TestGangValidation pins the constructor contract: empty lane sets and
// invalid configurations panic, as in New.
func TestGangValidation(t *testing.T) {
	k := bench.All()[0]
	c, err := core.Compile(k.Build(), core.Superblock, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewGang(c.Prog, nil) })
	bad := machine.Issue8Br1()
	bad.BTBEntries = 1000 // not a power of two
	mustPanic("invalid config", func() { NewGang(c.Prog, []machine.Config{bad}) })
}

// TestGangStepAllocs is the zero-alloc guard on the gang hot loop:
// after construction, feeding batches allocates nothing, instrumented
// lanes included.
func TestGangStepAllocs(t *testing.T) {
	k := bench.All()[0]
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(c.Prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	if len(trace) > 4*gangChunk {
		trace = trace[:4*gangChunk]
	}
	g := NewGang(c.Prog, gangConfigs())
	var a obs.CycleAccount
	g.Instrument(0, &a)
	g.EventBatch(trace) // warm up
	if n := testing.AllocsPerRun(10, func() { g.EventBatch(trace) }); n != 0 {
		t.Errorf("gang EventBatch allocates %v times per call; want 0", n)
	}
}

// TestLaneModes pins laneReplay's compile-time switch: the plain mode must
// stay zero-size, so its compiled loop carries no attribution, and the
// observed mode must not.
func TestLaneModes(t *testing.T) {
	if unsafe.Sizeof(plainLane{}) != 0 || unsafe.Sizeof(observedLane{}) == 0 {
		t.Fatalf("lane mode sizes %d (plain), %d (observed); want 0 and non-zero",
			unsafe.Sizeof(plainLane{}), unsafe.Sizeof(observedLane{}))
	}
}

// sweepTrace compiles wc under full predication for the 8-issue target
// and materializes its dynamic trace once for the throughput benchmarks.
func sweepTrace(b *testing.B) (*ir.Program, []machine.Config, []emu.Event) {
	b.Helper()
	k, err := bench.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		b.Fatal(err)
	}
	res, err := emu.Run(c.Prog, emu.Options{Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []machine.Config{
		machine.Issue1(), machine.Issue1Cache(), machine.Issue4Br1(),
		machine.Issue8Br1(), machine.Issue8Br2(), machine.Issue8Br1Cache(),
	}
	return c.Prog, cfgs, res.Trace
}

// BenchmarkSweepPerConfig is the per-config simulator cost: one full
// one-lane Simulator pass per stock machine configuration.
func BenchmarkSweepPerConfig(b *testing.B) {
	p, cfgs, trace := sweepTrace(b)
	sims := make([]*Simulator, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = NewTiming(p, cfg)
	}
	b.SetBytes(int64(len(trace)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range sims {
			for start := 0; start < len(trace); start += 512 {
				end := min(start+512, len(trace))
				s.EventBatch(trace[start:end])
			}
		}
	}
}

// BenchmarkSweepGang is the gang arm's simulator cost: one Gang stepping
// the same configurations through the same batches in a single pass.
func BenchmarkSweepGang(b *testing.B) {
	p, cfgs, trace := sweepTrace(b)
	g := NewGang(p, cfgs)
	b.SetBytes(int64(len(trace)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for start := 0; start < len(trace); start += 512 {
			end := min(start+512, len(trace))
			g.EventBatch(trace[start:end])
		}
	}
}
