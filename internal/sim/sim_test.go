package sim

import (
	"testing"

	"predication/internal/builder"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
)

// recorder collects the emulator's event stream.
type recorder struct{ evs []emu.Event }

func (r *recorder) EventBatch(evs []emu.Event) { r.evs = append(r.evs, evs...) }

// record emulates p and returns its dynamic event stream.
func record(p *ir.Program) ([]emu.Event, error) {
	var r recorder
	_, err := emu.Run(p, emu.Options{Sink: &r})
	return r.evs, err
}

// simulate times a recorded event stream on one machine configuration.
func simulate(p *ir.Program, trace []emu.Event, cfg machine.Config) Stats {
	s := NewTiming(p, cfg)
	s.EventBatch(trace)
	return s.Stats()
}

// straightline builds a program with n independent adds and a halt, and
// returns program + trace.
func straightline(t *testing.T, n int) (*ir.Program, []emu.Event) {
	t.Helper()
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	for i := 0; i < n; i++ {
		b.I(ir.Add, f.Reg(), int64(i), 1)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	trace, err := record(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, trace
}

func TestIssueWidthBound(t *testing.T) {
	prog, trace := straightline(t, 64)
	c8 := simulate(prog, trace, machine.Issue8Br1())
	c1 := simulate(prog, trace, machine.Issue1())
	// 64 independent adds + halt: 8-issue needs ~9 cycles, 1-issue ~65.
	if c8.Cycles > 10 {
		t.Errorf("8-issue took %d cycles for 64 independent adds", c8.Cycles)
	}
	if c1.Cycles < 65 {
		t.Errorf("1-issue took only %d cycles", c1.Cycles)
	}
	if c8.Instrs != 65 || c1.Instrs != 65 {
		t.Errorf("instr counts %d/%d", c8.Instrs, c1.Instrs)
	}
}

func TestDependenceInterlock(t *testing.T) {
	// A chain of dependent multiplies (latency 2) cannot exceed IPC 0.5.
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
	trace, _ := record(prog)
	st := simulate(prog, trace, machine.Issue8Br1())
	if st.Cycles < 64 {
		t.Errorf("dependent multiply chain finished in %d cycles; interlocks not modeled", st.Cycles)
	}
}

func TestBranchSlotBound(t *testing.T) {
	// Many never-taken branches: 1-branch machine serializes them.
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
	trace, _ := record(prog)
	br1 := simulate(prog, trace, machine.Issue8Br1())
	br2 := simulate(prog, trace, machine.Issue8Br2())
	if br1.Cycles < 32 {
		t.Errorf("1-branch machine: %d cycles for 32 branches", br1.Cycles)
	}
	if br2.Cycles > br1.Cycles*2/3 {
		t.Errorf("2-branch machine should be markedly faster: %d vs %d", br2.Cycles, br1.Cycles)
	}
}

func TestBTBTraining(t *testing.T) {
	// A loop branch taken 100 times: after warmup the BTB predicts it, so
	// mispredictions stay tiny; an alternating branch mispredicts heavily.
	loop := func(alternate bool) Stats {
		p := builder.New(256)
		f := p.Func("main")
		entry := f.Entry()
		l := f.Block("loop")
		odd := f.Block("odd")
		done := f.Block("done")
		i, x := f.Reg(), f.Reg()
		entry.Mov(i, 0).Mov(x, 0)
		entry.Fall(l)
		l.Br(ir.GE, i, 100, done)
		if alternate {
			l.I(ir.And, x, i, 1)
			l.Br(ir.EQ, x, 1, odd) // taken every other iteration
		}
		l.I(ir.Add, i, i, 1)
		l.Jmp(l)
		odd.I(ir.Add, i, i, 1)
		odd.Jmp(l)
		done.Halt()
		prog := p.Program()
		prog.AssignAddresses()
		trace, err := record(prog)
		if err != nil {
			t.Fatal(err)
		}
		return simulate(prog, trace, machine.Issue8Br1())
	}
	steady := loop(false)
	if steady.Mispredicts > 5 {
		t.Errorf("predictable loop mispredicted %d times", steady.Mispredicts)
	}
	alt := loop(true)
	if alt.Mispredicts < 20 {
		t.Errorf("alternating branch mispredicted only %d times", alt.Mispredicts)
	}
}

func TestNullifiedBranchesAreSquashed(t *testing.T) {
	// A guarded, nullified branch consumes an issue slot but not a branch
	// slot and is not counted as an executed branch.
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	sink := f.Block("sink")
	pf := f.F.NewPReg()
	b.B.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: pf, Type: ir.PredU},
		ir.PredDest{}, ir.Imm(0), ir.Imm(1), ir.PNone)) // pf = false
	for i := 0; i < 8; i++ {
		j := &ir.Instr{Op: ir.Jump, Target: sink.ID(), Guard: pf}
		b.B.Append(j)
	}
	b.Halt()
	sink.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	trace, _ := record(prog)
	st := simulate(prog, trace, machine.Issue8Br1())
	if st.Branches != 0 {
		t.Errorf("nullified branches counted as executed: %d", st.Branches)
	}
	if st.Nullified != 8 {
		t.Errorf("nullified count %d, want 8", st.Nullified)
	}
	// All 8 nullified jumps issue in one or two cycles despite the
	// 1-branch limit (they do not occupy the branch unit).
	if st.Cycles > 6 {
		t.Errorf("nullified branches serialized: %d cycles", st.Cycles)
	}
}

func TestDCacheMissLatency(t *testing.T) {
	// A dependent pointer-chase striding one 64-byte block per load: every
	// block is a cold miss, and each load feeds the next address, so the
	// 12-cycle miss penalty lands squarely on the critical path.
	p := builder.New(1 << 16)
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i) + 8 // next address: one cache block ahead
	}
	base := p.Words(vals...)
	f := p.Func("main")
	b := f.Entry()
	a := f.Reg()
	b.Mov(a, 0)
	for i := 0; i < 64; i++ {
		b.Load(a, a, base) // a = mem[base+a] = a+8
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	trace, _ := record(prog)
	perfect := simulate(prog, trace, machine.Issue8Br1())
	real := simulate(prog, trace, machine.Issue8Br1Cache())
	if real.DCacheMisses < 60 {
		t.Errorf("expected ~64 cold misses, got %d", real.DCacheMisses)
	}
	if real.Cycles < perfect.Cycles+int64(real.DCacheMisses)*10 {
		t.Errorf("miss penalty not reflected: perfect=%d real=%d", perfect.Cycles, real.Cycles)
	}
	// Second pass over the same data hits.
	st2 := simulate(prog, append(append([]emu.Event{}, trace...), trace...), machine.Issue8Br1Cache())
	if st2.DCacheMisses != real.DCacheMisses {
		t.Errorf("second pass should hit: %d vs %d misses", st2.DCacheMisses, real.DCacheMisses)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Cycles: 100, Instrs: 250, CondBranches: 40, Mispredicts: 10}
	if s.IPC() != 2.5 {
		t.Errorf("IPC %v", s.IPC())
	}
	if s.MispredictRate() != 0.25 {
		t.Errorf("MPR %v", s.MispredictRate())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.MispredictRate() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestWritebackSuppressionShortensDefineUse(t *testing.T) {
	// pred define -> guarded use chain: decode-stage suppression forces a
	// 1-cycle gap; writeback-stage suppression allows same-cycle issue.
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	// Feedback chain: each define compares the register the previous
	// guarded add produced, so define-to-use distance is on the critical
	// path every iteration.
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
	trace, _ := record(prog)
	decode := simulate(prog, trace, machine.Issue8Br1())
	wbCfg := machine.Issue8Br1()
	wbCfg.WritebackSuppression = true
	wb := simulate(prog, trace, wbCfg)
	if wb.Cycles >= decode.Cycles {
		t.Errorf("writeback suppression should be faster: %d vs %d", wb.Cycles, decode.Cycles)
	}
}

// TestICacheMisses: code that cycles through a footprint larger than the
// 64K instruction cache must miss continuously; a small loop must not.
func TestICacheMisses(t *testing.T) {
	build := func(bodies int) (*ir.Program, []emu.Event) {
		p := builder.New(1 << 10)
		f := p.Func("main")
		entry := f.Entry()
		hdr := f.Block("hdr")
		i := f.Reg()
		sink := f.Regs(8)
		entry.Mov(i, 0)
		entry.Fall(hdr)
		// A chain of large straight-line sections executed in sequence.
		cur := f.Block("s0")
		hdr.Br(ir.GE, i, 3, nil2(f))
		hdr.Fall(cur)
		for s := 0; s < bodies; s++ {
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
		trace, err := record(prog)
		if err != nil {
			t.Fatal(err)
		}
		return prog, trace
	}
	// 12 sections x 2048 instrs x 4B = 96KB > 64KB: capacity misses on
	// every revisit.
	prog, trace := build(12)
	st := simulate(prog, trace, machine.Issue8Br1Cache())
	if st.ICacheMisses < 2000 {
		t.Errorf("icache misses %d for a 96KB loop footprint", st.ICacheMisses)
	}
	// 2 sections = 16KB: only cold misses.
	prog2, trace2 := build(2)
	st2 := simulate(prog2, trace2, machine.Issue8Br1Cache())
	cold := int64(16 << 10 / 64)
	if st2.ICacheMisses > cold+16 {
		t.Errorf("icache misses %d for a fitting footprint (cold = %d)", st2.ICacheMisses, cold)
	}
}

// nil2 creates a halt block (helper for TestICacheMisses).
func nil2(f *builder.Fn) *builder.Blk {
	b := f.Block("done")
	b.Halt()
	return b
}

// TestPredicateDistanceConfig: larger define-to-use distances slow
// predicated code down monotonically.
func TestPredicateDistanceConfig(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Mov(r, 0)
	for i := 0; i < 16; i++ {
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
	trace, _ := record(prog)
	var last int64
	for _, d := range []int{1, 2, 3} {
		mc := machine.Issue8Br1()
		mc.PredicateDistance = d
		st := simulate(prog, trace, mc)
		if st.Cycles <= last {
			t.Errorf("distance %d: cycles %d not monotonic", d, st.Cycles)
		}
		last = st.Cycles
	}
}

// TestGsharePredictsAlternation: a strictly alternating branch defeats the
// 2-bit BTB (~50% MPR) but is learnable from global history.
func TestGsharePredictsAlternation(t *testing.T) {
	p := builder.New(256)
	f := p.Func("main")
	entry := f.Entry()
	l := f.Block("loop")
	odd := f.Block("odd")
	done := f.Block("done")
	i, x := f.Reg(), f.Reg()
	entry.Mov(i, 0)
	entry.Fall(l)
	l.Br(ir.GE, i, 400, done)
	l.I(ir.And, x, i, 1)
	l.Br(ir.EQ, x, 1, odd) // alternates every iteration
	l.I(ir.Add, i, i, 1)
	l.Jmp(l)
	odd.I(ir.Add, i, i, 1)
	odd.Jmp(l)
	done.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	trace, err := record(prog)
	if err != nil {
		t.Fatal(err)
	}
	btbStats := simulate(prog, trace, machine.Issue8Br1())
	g := machine.Issue8Br1()
	g.Gshare = true
	gStats := simulate(prog, trace, g)
	if gStats.Mispredicts*3 > btbStats.Mispredicts {
		t.Errorf("gshare should learn alternation: %d vs BTB %d mispredicts",
			gStats.Mispredicts, btbStats.Mispredicts)
	}
}
