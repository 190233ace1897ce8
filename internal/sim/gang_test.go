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
			trace, err := record(c.Prog)
			if err != nil {
				t.Fatalf("%s/%v: emulate: %v", k.Name, model, err)
			}
			g := NewGang(c.Prog, cfgs)
			feedGang(g, trace)
			for i, cfg := range cfgs {
				want := simulate(c.Prog, trace, cfg)
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
			trace, err := record(c.Prog)
			if err != nil {
				t.Fatalf("%s/%v: emulate: %v", k.Name, model, err)
			}
			g := NewGang(c.Prog, cfgs)
			accts := make([]obs.CycleAccount, len(cfgs))
			for i := range cfgs {
				g.Instrument(i, &accts[i])
			}
			feedGang(g, trace)
			for i, cfg := range cfgs {
				st := g.Stats(i)
				refSt, refAcct := simulateObserved(c.Prog, trace, cfg)
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
	trace, err := record(c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []machine.Config{machine.Issue8Br1(), machine.Issue1(), machine.Issue8Br1Cache()}
	g := NewGang(c.Prog, cfgs)
	var a obs.CycleAccount
	g.Instrument(1, &a)
	if g.lanes[1].acct != &a || g.lanes[0].acct != nil {
		t.Fatal("lane accounts do not reflect per-lane instrumentation")
	}
	feedGang(g, trace)
	for i, cfg := range cfgs {
		if got, want := g.Stats(i), simulate(c.Prog, trace, cfg); got != want {
			t.Errorf("lane %d (%s): %+v != %+v", i, cfg.Name, got, want)
		}
	}
	st := g.Stats(1)
	if err := a.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Error(err)
	}
}

// TestChunkBoundaries pins that the way a stream is cut into batches
// changes no result: the same recorded stream fed in batches of 1, 7,
// 511, 512 and 513 events, and as one whole batch, gives identical Stats
// and breakdowns on every lane of one gang.  The gang holds in-order and
// ooo32 lanes, each configuration once plain and once observed.
func TestChunkBoundaries(t *testing.T) {
	cfgs := []machine.Config{
		machine.Issue8Br1(), machine.Issue8Br1Cache(),
		ooo32(machine.Issue8Br1()), ooo32(machine.Issue8Br1Cache()),
	}
	lanes := append(append([]machine.Config{}, cfgs...), cfgs...) // plain, then observed
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	for _, name := range []string{"wc", "026.compress"} {
		k, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			c, err := core.Compile(k.Build(), model, core.DefaultOptions(machine.Issue8Br1()))
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", name, model, err)
			}
			trace, err := record(c.Prog)
			if err != nil {
				t.Fatalf("%s/%v: emulate: %v", name, model, err)
			}
			feed := func(n int) ([]Stats, []obs.CycleAccount) {
				g := NewGang(c.Prog, lanes)
				accts := make([]obs.CycleAccount, len(lanes))
				for i := len(cfgs); i < len(lanes); i++ {
					g.Instrument(i, &accts[i])
				}
				for i := 0; i < len(trace); i += n {
					g.EventBatch(trace[i:min(i+n, len(trace))])
				}
				sts := make([]Stats, len(lanes))
				for i := range lanes {
					sts[i] = g.Stats(i)
				}
				return sts, accts
			}
			wantSt, wantAcct := feed(len(trace))
			for i, cfg := range cfgs {
				if p, o := wantSt[i], wantSt[len(cfgs)+i]; p != o {
					t.Errorf("%s/%v @ %s: observed lane diverges from plain:\n  plain %+v\n  obs   %+v",
						name, model, cfg.Name, p, o)
				}
			}
			for _, n := range []int{1, 7, 511, 512, 513} {
				st, acct := feed(n)
				for i, cfg := range lanes {
					if st[i] != wantSt[i] || acct[i] != wantAcct[i] {
						t.Errorf("%s/%v @ %s (lane %d), batches of %d: diverges from one whole batch:\n  got  %+v %v\n  want %+v %v",
							name, model, cfg.Name, i, n, st[i], acct[i].Breakdown, wantSt[i], wantAcct[i].Breakdown)
					}
				}
			}
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
	trace, err := record(c.Prog)
	if err != nil {
		t.Fatal(err)
	}
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

// TestLaneModes pins the compile-time switch of laneReplay and
// laneReplayOoO: the plain mode must stay zero-size, so its compiled loops
// carry no attribution, and the observed mode must not.
func TestLaneModes(t *testing.T) {
	if unsafe.Sizeof(plainLane{}) != 0 || unsafe.Sizeof(observedLane{}) == 0 {
		t.Fatalf("lane mode sizes %d (plain), %d (observed); want 0 and non-zero",
			unsafe.Sizeof(plainLane{}), unsafe.Sizeof(observedLane{}))
	}
}

// sweepTrace compiles wc under full predication for the 8-issue target
// and records its dynamic trace once for the throughput benchmarks.
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
	trace, err := record(c.Prog)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []machine.Config{
		machine.Issue1(), machine.Issue1Cache(), machine.Issue4Br1(),
		machine.Issue8Br1(), machine.Issue8Br2(), machine.Issue8Br1Cache(),
	}
	return c.Prog, cfgs, trace
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
// the same configurations through the same batches in a single pass, in
// order and with a 32-entry window.  ns/lane-event is the pass time over
// events × lanes, the shared front end included.
func BenchmarkSweepGang(b *testing.B) {
	p, cfgs, trace := sweepTrace(b)
	oooCfgs := make([]machine.Config, len(cfgs))
	for i, cfg := range cfgs {
		oooCfgs[i] = ooo32(cfg)
	}
	for _, arm := range []struct {
		name string
		cfgs []machine.Config
	}{{"inorder", cfgs}, {"ooo32", oooCfgs}} {
		b.Run(arm.name, func(b *testing.B) {
			g := NewGang(p, arm.cfgs)
			b.SetBytes(int64(len(trace)))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for start := 0; start < len(trace); start += 512 {
					end := min(start+512, len(trace))
					g.EventBatch(trace[start:end])
				}
			}
			laneEvents := float64(b.N) * float64(len(trace)) * float64(len(arm.cfgs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/laneEvents, "ns/lane-event")
		})
	}
}
