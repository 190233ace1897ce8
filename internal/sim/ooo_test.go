package sim

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/builder"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
)

// ooo32 returns cfg as a 32-entry out-of-order window machine.
func ooo32(cfg machine.Config) machine.Config {
	cfg.OoO = true
	cfg.WindowSize = 32
	cfg.Name += "+ooo32"
	return cfg
}

// simulateOoO runs a one-lane out-of-order simulator over a materialized
// trace one event at a time (the OoO counterpart of Simulate).
func simulateOoO(p *ir.Program, trace []emu.Event, cfg machine.Config) Stats {
	s := NewTiming(p, cfg)
	for _, ev := range trace {
		s.Event(ev)
	}
	return s.Stats()
}

// TestEmptyTraceCycles is the regression test for the empty-trace cycle
// count: every timing model used to report Cycles = 1 for a trace of
// zero events, because Stats() unconditionally returned lastIssue+1
// over the zero-initialized issue cursor.  A machine that has executed
// nothing has spent no cycles.
func TestEmptyTraceCycles(t *testing.T) {
	prog, _ := straightline(t, 4)
	cfg := machine.Issue8Br1()
	if st := NewTiming(prog, cfg).Stats(); st.Cycles != 0 || st.Instrs != 0 {
		t.Errorf("Simulator empty trace: %+v, want zero cycles and instrs", st)
	}
	if st := NewTiming(prog, ooo32(cfg)).Stats(); st.Cycles != 0 || st.Instrs != 0 {
		t.Errorf("OoO empty trace: %+v, want zero cycles and instrs", st)
	}
	g := NewGang(prog, []machine.Config{cfg, ooo32(cfg)})
	for i := 0; i < 2; i++ {
		if st := g.Stats(i); st.Cycles != 0 || st.Instrs != 0 {
			t.Errorf("Gang lane %d empty trace: %+v, want zero cycles and instrs", i, st)
		}
	}
	// One event makes the count positive again (the guard is on Instrs,
	// not a separate flag).
	_, trace := straightline(t, 0) // halt only
	if st := Simulate(prog, trace[:1], cfg); st.Cycles < 1 {
		t.Errorf("single-event trace: %d cycles, want >= 1", st.Cycles)
	}
}

// TestOoOWindow1Parity pins the degenerate case that anchors the
// out-of-order model to the in-order reference: with a 1-entry window,
// dispatch waits for the previous instruction's issue, which is exactly
// the in-order issue rule, so Stats must be bit-identical across every
// kernel, compilation model, and machine configuration.  (The one known
// divergence is a nonzero TakenBranchBubble — the OoO front end charges
// it from dispatch, not issue — which no stock configuration has; see
// the redirect comment in oooState.step.)
func TestOoOWindow1Parity(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	target := machine.Issue8Br1()
	bases := []machine.Config{
		machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(),
		machine.Issue8Br2(), machine.Issue8Br1Cache(),
	}
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
			for _, base := range bases {
				w1 := base
				w1.OoO = true
				w1.WindowSize = 1
				got := simulateOoO(c.Prog, res.Trace, w1)
				want := Simulate(c.Prog, res.Trace, base)
				if got != want {
					t.Errorf("%s/%v @ %s: window-1 OoO diverges from in-order:\n  ooo %+v\n  ref %+v",
						k.Name, model, base.Name, got, want)
				}
			}
		}
	}
}

// TestOoOGangParity pins the shared-engine contract: an out-of-order
// gang lane is Stats-identical to a one-lane simulator fed the same trace
// one event at a time, alongside heterogeneous in-order lanes.
func TestOoOGangParity(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	cfgs := []machine.Config{
		machine.Issue8Br1(),
		ooo32(machine.Issue8Br1()),
		ooo32(machine.Issue8Br1Cache()),
	}
	w4 := machine.Issue4Br1()
	w4.OoO = true
	w4.WindowSize = 4
	w4.Name += "+ooo4"
	cfgs = append(cfgs, w4)
	for _, k := range kernels {
		c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		res, err := emu.Run(c.Prog, emu.Options{Trace: true})
		if err != nil {
			t.Fatalf("%s: emulate: %v", k.Name, err)
		}
		g := NewGang(c.Prog, cfgs)
		feedGang(g, res.Trace)
		for i, cfg := range cfgs {
			var want Stats
			if cfg.OoO {
				want = simulateOoO(c.Prog, res.Trace, cfg)
			} else {
				want = Simulate(c.Prog, res.Trace, cfg)
			}
			if got := g.Stats(i); got != want {
				t.Errorf("%s @ %s: gang lane diverges from one-lane simulator:\n  lane %+v\n  ref  %+v",
					k.Name, cfg.Name, got, want)
			}
		}
	}
}

// TestOoOBreakdownInvariant extends the cycle-accounting guarantee to
// the out-of-order model: across kernels and window sizes, instrumented
// runs stay Stats-identical to uninstrumented ones, the breakdown
// decomposes Cycles exactly (CycleAccount.Verify), gang lanes produce
// the same account as a one-lane simulator, and the two new causes
// actually fire — a small window reports window_full, a narrow rename
// stage reports rename_stall.
func TestOoOBreakdownInvariant(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	// The inputs: every kernel compiled for full predication, plus a
	// program that fills a small window by construction (the kernels
	// alone attribute window_full on eqn only).
	type input struct {
		name string
		prog *ir.Program
	}
	var inputs []input
	for _, k := range kernels {
		c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		inputs = append(inputs, input{k.Name, c.Prog})
	}
	inputs = append(inputs, input{"window-fill", windowFill()})
	windows := []int{1, 2, 8, 32}
	bases := []machine.Config{machine.Issue8Br1(), machine.Issue8Br1Cache(), machine.Issue1()}
	var total obs.Breakdown
	for _, in := range inputs {
		res, err := emu.Run(in.prog, emu.Options{Trace: true})
		if err != nil {
			t.Fatalf("%s: emulate: %v", in.name, err)
		}
		for _, base := range bases {
			for _, w := range windows {
				cfg := base
				cfg.OoO = true
				cfg.WindowSize = w

				s := NewTiming(in.prog, cfg)
				var a obs.CycleAccount
				s.Instrument(&a)
				for _, ev := range res.Trace {
					s.Event(ev)
				}
				st := s.Stats()
				if plain := simulateOoO(in.prog, res.Trace, cfg); plain != st {
					t.Errorf("%s @ %s/w%d: instrumentation changed stats:\n  plain %+v\n  obs   %+v",
						in.name, base.Name, w, plain, st)
				}
				if err := a.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
					t.Errorf("%s @ %s/w%d: %v\n  breakdown %v", in.name, base.Name, w, err, a.Breakdown)
				}

				g := NewGang(in.prog, []machine.Config{cfg})
				var ga obs.CycleAccount
				g.Instrument(0, &ga)
				feedGang(g, res.Trace)
				if gst := g.Stats(0); gst != st {
					t.Errorf("%s @ %s/w%d: instrumented gang lane diverges:\n  lane %+v\n  ref  %+v",
						in.name, base.Name, w, gst, st)
				}
				if ga != a {
					t.Errorf("%s @ %s/w%d: gang account diverges from one-lane simulator:\n  lane %+v\n  ref  %+v",
						in.name, base.Name, w, ga, a)
				}
				for c := obs.Cause(0); c < obs.NumCauses; c++ {
					total[c] += a.Breakdown[c]
				}
			}
		}
	}
	if total[obs.CauseWindowFull] == 0 {
		t.Error("window_full never attributed across the matrix; small windows must backpressure")
	}
	if total[obs.CauseRenameStall] == 0 {
		t.Error("rename_stall never attributed across the matrix; 1-wide dispatch must saturate")
	}
}

// windowFill is a straight-line program that backs up a one- or two-entry
// window by construction on the cached machine.  A dependent divide chain
// fills the first 64-byte instruction-cache line; the first of sixteen
// independent adds opens the next, cold line, so its dispatch waits for
// the window (the last divides' issue) and then for the miss.  The rest of
// the line arrives with it, more adds than the machine dispatches in one
// cycle, and that overflow of a window-gated dispatch cohort is what
// window_full charges.
func windowFill() *ir.Program {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Mov(r, 1000)
	for i := 0; i < 15; i++ { // with the mov, one 16-instruction line
		b.I(ir.Div, r, r, 1)
	}
	for i := 0; i < 16; i++ {
		b.I(ir.Add, f.Reg(), int64(i), 1)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	return prog
}

// TestOoOOverlapBeatsInOrder is the model's reason to exist: a slow
// dependent chain followed in program order by an independent fast
// chain.  In order, the fast chain cannot issue before the stalled slow
// one, so its whole latency span lands after the slow chain's end; a
// window big enough to hold both lets the fast chain issue underneath
// the slow chain, and the run ends when the slow chain does.
func TestOoOOverlapBeatsInOrder(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r1, r2 := f.Reg(), f.Reg()
	b.Mov(r1, 1000)
	b.Mov(r2, 1)
	for i := 0; i < 12; i++ {
		b.I(ir.Div, r1, r1, 1) // latency 8, strictly dependent
	}
	for i := 0; i < 12; i++ {
		b.I(ir.Mul, r2, r2, 3) // latency 2, independent of the divides
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, err := emu.Run(prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// 27 dynamic instructions: a 32-entry window never backpressures.
	inOrder := Simulate(prog, res.Trace, machine.Issue8Br1())
	wide := simulateOoO(prog, res.Trace, ooo32(machine.Issue8Br1()))
	// In order the multiply chain's ~24-cycle span serializes after the
	// ~96-cycle divide chain; out of order it hides entirely.
	if wide.Cycles+15 > inOrder.Cycles {
		t.Errorf("32-entry window should hide the multiply chain: ooo %d cycles, in-order %d",
			wide.Cycles, inOrder.Cycles)
	}
	// The degenerate window reproduces the in-order machine exactly.
	w1 := machine.Issue8Br1()
	w1.OoO = true
	w1.WindowSize = 1
	if st := simulateOoO(prog, res.Trace, w1); st != inOrder {
		t.Errorf("window-1 diverges on the chain program:\n  ooo %+v\n  ref %+v", st, inOrder)
	}
}

// TestOoORingGrowth drives an issue far ahead of dispatch — a long
// dependent divide chain dispatches in a handful of cycles but issues
// hundreds of cycles later — so the issue-slot ring must grow past its
// initial capacity, and the instrumented run must still account every
// cycle.
func TestOoORingGrowth(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Mov(r, 1000)
	for i := 0; i < 128; i++ {
		b.I(ir.Div, r, r, 1) // latency 8, strictly dependent
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, err := emu.Run(prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo32(machine.Issue8Br1())
	s := NewTiming(prog, cfg)
	var a obs.CycleAccount
	s.Instrument(&a)
	s.EventBatch(res.Trace)
	st := s.Stats()
	// 128 dependent divides at latency 8: over a thousand cycles while
	// dispatch finished within ~130 — far beyond the initial ring.
	if st.Cycles < 1000 {
		t.Errorf("dependent divide chain finished in %d cycles; interlocks not modeled", st.Cycles)
	}
	if err := a.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Errorf("%v\n  breakdown %v", err, a.Breakdown)
	}
	if plain := simulateOoO(prog, res.Trace, cfg); plain != st {
		t.Errorf("instrumentation changed stats:\n  plain %+v\n  obs   %+v", plain, st)
	}
}

// TestOoOConstructorContracts pins the constructor seams: NewTiming and
// NewGang take in-order and out-of-order configurations alike and pick
// each lane's engine from its configuration, and an out-of-order machine
// without a window fails validation.
func TestOoOConstructorContracts(t *testing.T) {
	prog, _ := straightline(t, 4)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	oooCfg := ooo32(machine.Issue8Br1())
	bad := oooCfg
	bad.WindowSize = 0
	mustPanic("NewTiming zero window", func() { NewTiming(prog, bad) })
	mustPanic("NewGang zero window", func() { NewGang(prog, []machine.Config{machine.Issue8Br1(), bad}) })
	g := NewGang(prog, []machine.Config{machine.Issue8Br1(), oooCfg})
	if g.lanes[0].ooo != nil || g.lanes[1].ooo == nil {
		t.Error("NewGang did not pick each lane's engine from its configuration")
	}
	if NewTiming(prog, oooCfg).g.lanes[0].ooo == nil {
		t.Error("NewTiming(OoO config) does not run the window scheduler")
	}
	if NewTiming(prog, machine.Issue8Br1()).g.lanes[0].ooo != nil {
		t.Error("NewTiming(in-order config) runs the window scheduler")
	}
}

// TestOoOStepAllocs extends the zero-alloc guard to the out-of-order
// path: once the ring has warmed past its initial growth, batch feeding
// allocates nothing, instrumented or not.
func TestOoOStepAllocs(t *testing.T) {
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
	if len(trace) > 4096 {
		trace = trace[:4096]
	}
	s := NewTiming(c.Prog, ooo32(machine.Issue8Br1()))
	var a obs.CycleAccount
	s.Instrument(&a)
	s.EventBatch(trace) // warm up (ring growth happens here if at all)
	if n := testing.AllocsPerRun(10, func() { s.EventBatch(trace) }); n != 0 {
		t.Errorf("OoO EventBatch allocates %v times per call; want 0", n)
	}
}
