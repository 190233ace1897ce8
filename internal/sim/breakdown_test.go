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

// simulateObserved runs the trace through an instrumented simulator and
// returns both the stats and the cycle account.
func simulateObserved(p *ir.Program, trace []emu.Event, cfg machine.Config) (Stats, *obs.CycleAccount) {
	s := NewTiming(p, cfg)
	var a obs.CycleAccount
	s.Instrument(&a)
	for _, ev := range trace {
		s.Event(ev)
	}
	return s.Stats(), &a
}

// TestBreakdownInvariantMatrix is the PR's central guarantee: across every
// kernel, compilation model, and simulator configuration, the stall
// breakdown decomposes Stats.Cycles exactly — sum(Breakdown) == Cycles,
// sum(Fetched) == Instrs, sum(Nullified) == Stats.Nullified — and
// instrumenting the simulator does not change a single statistic.
func TestBreakdownInvariantMatrix(t *testing.T) {
	kernels := bench.All()
	if testing.Short() {
		kernels = kernels[:4]
	}
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	cfgs := []machine.Config{machine.Issue8Br1(), machine.Issue8Br1Cache(), machine.Issue1()}
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
			for _, cfg := range cfgs {
				plain := Simulate(c.Prog, res.Trace, cfg)
				st, acct := simulateObserved(c.Prog, res.Trace, cfg)
				if st != plain {
					t.Errorf("%s/%v @ %s: instrumented stats diverge:\n  plain    %+v\n  observed %+v",
						k.Name, model, cfg.Name, plain, st)
				}
				if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
					t.Errorf("%s/%v @ %s: %v\n  breakdown %v",
						k.Name, model, cfg.Name, err, acct.Breakdown)
				}
			}
		}
	}
}

// TestBreakdownIssueWidth: 64 independent adds on a 1-issue machine stall
// on nothing but issue bandwidth.
func TestBreakdownIssueWidth(t *testing.T) {
	prog, trace := straightline(t, 64)
	st, acct := simulateObserved(prog, trace, machine.Issue1())
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	stalls := acct.Breakdown.Stalls()
	if stalls == 0 || acct.Breakdown[obs.CauseIssueWidth] != stalls {
		t.Errorf("want all %d stall cycles on issue width, got breakdown %v", stalls, acct.Breakdown)
	}
	// 8-issue runs the 65 instructions in ~9 cycles, all but the first
	// saturated: width cost shows as saturated cycles, not empty ones.
	st8, acct8 := simulateObserved(prog, trace, machine.Issue8Br1())
	if err := acct8.Verify(st8.Cycles, st8.Instrs, st8.Nullified); err != nil {
		t.Fatal(err)
	}
	if w := acct8.Breakdown[obs.CauseIssueWidth]; w != st8.Cycles-1 {
		t.Errorf("8-issue machine charged %d of %d cycles to issue width", w, st8.Cycles)
	}
}

// TestBreakdownRegInterlock: a dependent multiply chain stalls on register
// interlocks, and the breakdown says so.
func TestBreakdownRegInterlock(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Mov(r, 1)
	for i := 0; i < 32; i++ {
		b.I(ir.Mul, r, r, 3)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, _ := emu.Run(prog, emu.Options{Trace: true})
	st, acct := simulateObserved(prog, res.Trace, machine.Issue8Br1())
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	if il := acct.Breakdown[obs.CauseRegInterlock]; il < 30 {
		t.Errorf("dependent multiply chain charged only %d cycles to interlock: %v", il, acct.Breakdown)
	}
}

// TestBreakdownBranchLimit: back-to-back not-taken branches on a 1-branch
// machine stall on branch-unit bandwidth, not issue width.
func TestBreakdownBranchLimit(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	sink := f.Block("sink")
	for i := 0; i < 32; i++ {
		b.Br(ir.EQ, 1, 0, sink)
	}
	b.Halt()
	sink.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, _ := emu.Run(prog, emu.Options{Trace: true})
	st, acct := simulateObserved(prog, res.Trace, machine.Issue8Br1())
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	if bl := acct.Breakdown[obs.CauseBranchLimit]; bl < 28 {
		t.Errorf("32 serialized branches charged only %d cycles to the branch limit: %v", bl, acct.Breakdown)
	}
	if acct.Breakdown[obs.CauseIssueWidth] != 0 {
		t.Errorf("issue width charged on a branch-bound trace: %v", acct.Breakdown)
	}
}

// TestBreakdownMispredict: an alternating branch defeats the 2-bit BTB;
// the mispredict redirect cycles must appear under CauseMispredict and
// scale with the penalty times the mispredict count.
func TestBreakdownMispredict(t *testing.T) {
	p := builder.New(256)
	f := p.Func("main")
	entry := f.Entry()
	l := f.Block("loop")
	odd := f.Block("odd")
	done := f.Block("done")
	i, x := f.Reg(), f.Reg()
	entry.Mov(i, 0)
	entry.Fall(l)
	l.Br(ir.GE, i, 200, done)
	l.I(ir.And, x, i, 1)
	l.Br(ir.EQ, x, 1, odd)
	l.I(ir.Add, i, i, 1)
	l.Jmp(l)
	odd.I(ir.Add, i, i, 1)
	odd.Jmp(l)
	done.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, _ := emu.Run(prog, emu.Options{Trace: true})
	cfg := machine.Issue8Br1()
	st, acct := simulateObserved(prog, res.Trace, cfg)
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	if st.Mispredicts < 20 {
		t.Fatalf("expected heavy misprediction, got %d", st.Mispredicts)
	}
	// Each mispredict redirects the front end for penalty+1 cycles; some
	// of that hides under other stalls, but most of it must surface.
	want := st.Mispredicts * int64(cfg.MispredictPenalty) / 2
	if mp := acct.Breakdown[obs.CauseMispredict]; mp < want {
		t.Errorf("%d mispredicts charged only %d cycles (want >= %d): %v",
			st.Mispredicts, mp, want, acct.Breakdown)
	}
}

// TestBreakdownDCache: a dependent pointer chase with cold misses charges
// the miss tail to the data cache, not to the register interlock.
func TestBreakdownDCache(t *testing.T) {
	p := builder.New(1 << 16)
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i) + 8
	}
	base := p.Words(vals...)
	f := p.Func("main")
	b := f.Entry()
	a := f.Reg()
	b.Mov(a, 0)
	for i := 0; i < 64; i++ {
		b.Load(a, a, base)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, _ := emu.Run(prog, emu.Options{Trace: true})
	cfg := machine.Issue8Br1Cache()
	st, acct := simulateObserved(prog, res.Trace, cfg)
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	// Most of each 12-cycle miss tail surfaces as a dcache stall; a slice
	// is donated to the issue cycle or overlaps cold icache fetch stalls.
	want := st.DCacheMisses * int64(cfg.DCache.MissCycles) * 3 / 4
	if dcc := acct.Breakdown[obs.CauseDCache]; dcc < want {
		t.Errorf("%d dcache misses on the critical path charged only %d cycles (want >= %d): %v",
			st.DCacheMisses, dcc, want, acct.Breakdown)
	}
}

// TestBreakdownPredInterlock: a predicate define-use feedback chain stalls
// on predicate readiness.
func TestBreakdownPredInterlock(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Mov(r, 0)
	for i := 0; i < 20; i++ {
		pr := f.F.NewPReg()
		b.B.Append(ir.NewPredDef(ir.GE, ir.PredDest{P: pr, Type: ir.PredU},
			ir.PredDest{}, ir.R(r), ir.Imm(0), ir.PNone))
		g := ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1))
		g.Guard = pr
		b.B.Append(g)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, _ := emu.Run(prog, emu.Options{Trace: true})
	// Distance 3 leaves two empty cycles per define-use hop; the default
	// decode-stage distance of 1 overlaps completely with the define's
	// own issue and correctly reports no stall.
	cfg := machine.Issue8Br1()
	cfg.PredicateDistance = 3
	st, acct := simulateObserved(prog, res.Trace, cfg)
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	if pi := acct.Breakdown[obs.CausePredInterlock]; pi < 15 {
		t.Errorf("define-use chain charged only %d cycles to predicate interlock: %v", pi, acct.Breakdown)
	}
	if acct.Fetched[obs.ClassPredDef] != 20 {
		t.Errorf("pred-define mix count %d, want 20", acct.Fetched[obs.ClassPredDef])
	}
}

// TestBreakdownICache: a footprint larger than the instruction cache
// charges fetch stalls to icache misses.
func TestBreakdownICache(t *testing.T) {
	p := builder.New(1 << 10)
	f := p.Func("main")
	entry := f.Entry()
	hdr := f.Block("hdr")
	done := f.Block("done")
	done.Halt()
	i := f.Reg()
	sink := f.Regs(8)
	entry.Mov(i, 0)
	entry.Fall(hdr)
	cur := f.Block("s0")
	hdr.Br(ir.GE, i, 3, done)
	hdr.Fall(cur)
	for s := 0; s < 12; s++ {
		for k := 0; k < 2048; k++ {
			cur.I(ir.Add, sink[k%8], int64(k), int64(s))
		}
		next := f.Block("s")
		cur.Fall(next)
		cur = next
	}
	cur.I(ir.Add, i, i, 1)
	cur.Jmp(hdr)
	prog := p.Program()
	prog.AssignAddresses()
	res, err := emu.Run(prog, emu.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Issue8Br1Cache()
	st, acct := simulateObserved(prog, res.Trace, cfg)
	if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
		t.Fatal(err)
	}
	if st.ICacheMisses < 2000 {
		t.Fatalf("expected capacity misses, got %d", st.ICacheMisses)
	}
	want := st.ICacheMisses * int64(cfg.ICache.MissCycles) / 2
	if icc := acct.Breakdown[obs.CauseICache]; icc < want {
		t.Errorf("%d icache misses charged only %d cycles (want >= %d): %v",
			st.ICacheMisses, icc, want, acct.Breakdown)
	}
}

// TestUsefulIPC: nullified instructions count toward IPC but not UsefulIPC.
func TestUsefulIPC(t *testing.T) {
	s := Stats{Cycles: 100, Instrs: 300, Nullified: 50}
	if s.IPC() != 3.0 {
		t.Errorf("IPC %v", s.IPC())
	}
	if s.UsefulIPC() != 2.5 {
		t.Errorf("UsefulIPC %v", s.UsefulIPC())
	}
	var zero Stats
	if zero.UsefulIPC() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

// TestInstrumentMidRun: instrumentation attached after events have been
// consumed accounts only the remaining cycles; the invariant against full
// Stats.Cycles is a whole-run property, so here we check the account adds
// up to the cycle delta instead.
func TestInstrumentMidRun(t *testing.T) {
	prog, trace := straightline(t, 64)
	s := NewTiming(prog, machine.Issue1())
	half := len(trace) / 2
	for _, ev := range trace[:half] {
		s.Event(ev)
	}
	mid := s.Stats().Cycles
	var a obs.CycleAccount
	s.Instrument(&a)
	for _, ev := range trace[half:] {
		s.Event(ev)
	}
	end := s.Stats().Cycles
	// After Instrument, acctPrev restarts at -1, so the first observed
	// event re-attributes the cycles up to its issue; the account covers
	// (0, end] minus nothing — i.e. it equals end cycles only if attached
	// before the first event.  Attached mid-run it covers the tail plus
	// the first re-attributed span; the sum must still be internally
	// consistent and at least the tail.
	if got := a.Breakdown.Total(); got < end-mid {
		t.Errorf("mid-run account %d smaller than cycle delta %d", got, end-mid)
	}
}
