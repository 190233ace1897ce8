package emu

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"predication/internal/builder"
	"predication/internal/cfg"
	"predication/internal/ir"
)

// recorder collects the emulator's event stream.
type recorder struct{ evs []Event }

func (r *recorder) EventBatch(evs []Event) { r.evs = append(r.evs, evs...) }

// run executes a single-block program built by fill and returns final
// memory.
func run(t *testing.T, memWords int, fill func(f *builder.Fn, b *builder.Blk)) *Result {
	t.Helper()
	p := builder.New(memWords)
	f := p.Func("main")
	b := f.Entry()
	fill(f, b)
	res, err := Run(p.Program(), Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, 64, func(f *builder.Fn, b *builder.Blk) {
		r := f.Regs(12)
		b.I(ir.Add, r[0], 7, 5)
		b.I(ir.Sub, r[1], 7, 5)
		b.I(ir.Mul, r[2], -3, 5)
		b.I(ir.Div, r[3], 17, 5)
		b.I(ir.Rem, r[4], 17, 5)
		b.I(ir.And, r[5], 0b1100, 0b1010)
		b.I(ir.Or, r[6], 0b1100, 0b1010)
		b.I(ir.Xor, r[7], 0b1100, 0b1010)
		b.I(ir.Shl, r[8], 3, 4)
		b.I(ir.Shr, r[9], 64, 3)
		b.I(ir.AndNot, r[10], 0b1111, 0b0101)
		b.I(ir.OrNot, r[11], 0, 0)
		for i, rg := range r {
			b.Store(0, int64(10+i), rg)
		}
		b.Halt()
	})
	want := []int64{12, 2, -15, 3, 2, 0b1000, 0b1110, 0b0110, 48, 8, 0b1010, ^int64(0)}
	for i, w := range want {
		if got := res.Word(int64(10 + i)); got != w {
			t.Errorf("op %d: got %d, want %d", i, got, w)
		}
	}
}

func TestComparisonsAndBranches(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	taken := f.Block("taken")
	out := f.Block("out")
	r := f.Reg()
	b.I(ir.CmpLT, r, 3, 5)
	b.Store(0, 10, r)
	b.Br(ir.GT, 7, 2, taken)
	b.Store(0, 11, 999) // skipped
	b.Jmp(out)
	taken.Store(0, 11, 1)
	taken.Fall(out)
	out.Halt()
	res, err := Run(p.Program(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word(10) != 1 || res.Word(11) != 1 {
		t.Errorf("cmp=%d taken=%d", res.Word(10), res.Word(11))
	}
}

func TestFloatOps(t *testing.T) {
	res := run(t, 64, func(f *builder.Fn, b *builder.Blk) {
		r := f.Regs(4)
		b.I(ir.AddF, r[0], 1.5, 2.25)
		b.I(ir.MulF, r[1], r[0], 2.0)
		b.I(ir.CvtFI, r[2], r[1])
		b.I(ir.CmpLTF, r[3], 1.0, 2.0)
		b.Store(0, 10, r[2])
		b.Store(0, 11, r[3])
		b.Halt()
	})
	if res.Word(10) != 7 {
		t.Errorf("float pipeline got %d, want 7", res.Word(10))
	}
	if res.Word(11) != 1 {
		t.Errorf("lt_f got %d", res.Word(11))
	}
}

func TestGuardSuppression(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	pt, pf := f.F.NewPReg(), f.F.NewPReg()
	b.Mov(r, 1)
	// p_true = (0 == 0); p_false its complement.
	b.B.Append(ir.NewPredDef(ir.EQ,
		ir.PredDest{P: pt, Type: ir.PredU}, ir.PredDest{P: pf, Type: ir.PredUBar},
		ir.Imm(0), ir.Imm(0), ir.PNone))
	add1 := ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(10))
	add1.Guard = pt
	add2 := ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(100))
	add2.Guard = pf // suppressed
	b.B.Append(add1, add2)
	b.Store(0, 10, r)
	b.Halt()
	prog := p.Program()
	var rec recorder
	res, err := Run(prog, Options{Sink: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word(10) != 11 {
		t.Errorf("got %d, want 11 (guarded add2 must be nullified)", res.Word(10))
	}
	// The nullified instruction appears in the trace flagged as such.
	var id1, id2, id int32
	prog.ForEachInstr(func(_ int, in *ir.Instr) {
		switch in {
		case add1:
			id1 = id
		case add2:
			id2 = id
		}
		id++
	})
	var sawNullified bool
	for _, ev := range rec.evs {
		if ev.ID == id2 && ev.Nullified() {
			sawNullified = true
		}
		if ev.ID == id1 && ev.Nullified() {
			t.Error("add1 must not be nullified")
		}
	}
	if !sawNullified {
		t.Error("nullified instruction missing from trace")
	}
}

// TestPredDefGuardSemantics: a predicate define executes its Table-1 logic
// even when its own guard is false (Pin=0 rows).
func TestPredDefGuardSemantics(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	pFalse, pU := f.F.NewPReg(), f.F.NewPReg()
	// Set every predicate to 1 first, then clear the guard: the U define
	// under the false guard must WRITE 0 over pU's preset 1.
	b.B.Append(&ir.Instr{Op: ir.PredSet})
	// pFalse = (0 == 1) -> 0.
	b.B.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: pFalse, Type: ir.PredU},
		ir.PredDest{}, ir.Imm(0), ir.Imm(1), ir.PNone))
	b.B.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: pU, Type: ir.PredU},
		ir.PredDest{}, ir.Imm(0), ir.Imm(0), pFalse))
	mov := ir.NewInstr(ir.Mov, r, ir.Imm(42))
	mov.Guard = pU
	b.Mov(r, 7)
	b.B.Append(mov)
	b.Store(0, 10, r)
	b.Halt()
	res, err := Run(p.Program(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word(10) != 7 {
		t.Errorf("U-type define under false guard must write 0: got r=%d", res.Word(10))
	}
}

func TestSilentInstructions(t *testing.T) {
	// Non-silent out-of-bounds load traps.
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	b.Load(r, 1<<30, 0)
	b.Halt()
	if _, err := Run(p.Program(), Options{}); err == nil {
		t.Fatal("out-of-bounds load must trap")
	} else if !strings.Contains(err.Error(), "illegal load") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Silent version returns 0.
	p2 := builder.New(64)
	f2 := p2.Func("main")
	b2 := f2.Entry()
	r2 := f2.Reg()
	ld := ir.NewInstr(ir.Load, r2, ir.Imm(1<<30), ir.Imm(0))
	ld.Silent = true
	b2.B.Append(ld)
	b2.Store(0, 10, r2)
	b2.Halt()
	res, err := Run(p2.Program(), Options{})
	if err != nil {
		t.Fatalf("silent load trapped: %v", err)
	}
	if res.Word(10) != 0 {
		t.Errorf("silent load result %d, want 0", res.Word(10))
	}
	// Division by zero: trap vs silent zero.
	p3 := builder.New(64)
	f3 := p3.Func("main")
	b3 := f3.Entry()
	r3 := f3.Reg()
	b3.I(ir.Div, r3, 5, 0)
	b3.Halt()
	if _, err := Run(p3.Program(), Options{}); err == nil {
		t.Fatal("divide by zero must trap")
	}
}

func TestCMovSelect(t *testing.T) {
	res := run(t, 64, func(f *builder.Fn, b *builder.Blk) {
		r := f.Regs(4)
		b.Mov(r[0], 1).Mov(r[1], 2)
		b.I(ir.CMov, r[0], 50, 1)    // cond true: r0 = 50
		b.I(ir.CMov, r[1], 50, 0)    // cond false: r1 stays 2
		b.I(ir.CMovCom, r[2], 60, 0) // complement, cond false: writes
		b.I(ir.Select, r[3], 7, 8, 0)
		b.Store(0, 10, r[0]).Store(0, 11, r[1]).Store(0, 12, r[2]).Store(0, 13, r[3])
		b.Halt()
	})
	for i, want := range []int64{50, 2, 60, 8} {
		if got := res.Word(int64(10 + i)); got != want {
			t.Errorf("word %d: got %d, want %d", 10+i, got, want)
		}
	}
}

func TestCallReturn(t *testing.T) {
	p := builder.New(64)
	callee := p.Func("callee") // note: first function is entry; fix below
	cb := callee.Entry()
	cb.Store(0, 20, 123)
	cb.Ret()
	main := p.Func("main")
	mb := main.Entry()
	mb.Call("callee")
	mb.Store(0, 21, 456)
	mb.Halt()
	prog := p.Program()
	prog.Entry = 1 // main
	res, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word(20) != 123 || res.Word(21) != 456 {
		t.Errorf("call/ret: %d %d", res.Word(20), res.Word(21))
	}
}

func TestProfileCollection(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	entry := f.Entry()
	loop := f.Block("loop")
	done := f.Block("done")
	i := f.Reg()
	entry.Mov(i, 0)
	entry.Fall(loop)
	br := ir.NewBranch(ir.GE, ir.R(i), ir.Imm(10), done.ID())
	loop.B.Append(br)
	loop.I(ir.Add, i, i, 1)
	loop.Jmp(loop)
	done.Halt()
	prof := cfg.NewProfile()
	if _, err := Run(p.Program(), Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if prof.Taken[br] != 1 || prof.NotTaken[br] != 10 {
		t.Errorf("branch profile taken=%d nottaken=%d", prof.Taken[br], prof.NotTaken[br])
	}
	if got := prof.BlockCount[loop.B]; got != 11 {
		t.Errorf("loop entered %d times, want 11", got)
	}
}

func TestStepLimit(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	loop := f.Block("spin")
	b.Fall(loop)
	loop.Jmp(loop)
	_, err := Run(p.Program(), Options{MaxSteps: 1000})
	if err == nil {
		t.Fatal("infinite loop must hit the step limit")
	}
	// The quota error is typed: the submission gate classifies it without
	// string matching.
	var sl *StepLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("error %v is not a StepLimitError", err)
	}
	if sl.Limit != 1000 || !strings.Contains(err.Error(), "step limit 1000") {
		t.Errorf("limit=%d msg=%q", sl.Limit, err)
	}
}

// TestALUQuick compares emulated three-instruction programs against Go
// arithmetic on random inputs.
func TestALUQuick(t *testing.T) {
	check := func(a, b int64) bool {
		p := builder.New(64)
		f := p.Func("main")
		blk := f.Entry()
		r := f.Regs(3)
		blk.Mov(r[0], a).Mov(r[1], b)
		blk.I(ir.Add, r[2], r[0], r[1])
		blk.I(ir.Xor, r[2], r[2], r[0])
		blk.I(ir.Sub, r[2], r[2], r[1])
		blk.Store(0, 10, r[2])
		blk.Halt()
		res, err := Run(p.Program(), Options{})
		if err != nil {
			return false
		}
		return res.Word(10) == ((a+b)^a)-b
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestExecErrorDetail: exceptions carry location and instruction context.
func TestExecErrorDetail(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	b.I(ir.Div, f.Reg(), 1, 0)
	b.Halt()
	_, err := Run(p.Program(), Options{})
	var ee *ExecError
	if !errorsAs(err, &ee) {
		t.Fatalf("error type %T", err)
	}
	if ee.Fn != "main" || ee.In == nil || !strings.Contains(ee.Error(), "divide by zero") {
		t.Errorf("error detail: %+v", ee)
	}
}

func errorsAs(err error, target **ExecError) bool {
	for err != nil {
		if e, ok := err.(*ExecError); ok {
			*target = e
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestCallStackOverflow: unbounded recursion is caught.
func TestCallStackOverflow(t *testing.T) {
	p := builder.New(64)
	rec := p.Func("rec")
	rb := rec.Entry()
	rb.Call("rec")
	rb.Ret()
	if _, err := Run(p.Program(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("recursion error: %v", err)
	}
}

// TestRetWithoutCall errors cleanly.
func TestRetWithoutCall(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	f.Entry().Ret()
	if _, err := Run(p.Program(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "empty call stack") {
		t.Fatalf("ret error: %v", err)
	}
}

// TestGuardApplyIsNeutral: guard instructions change no state.
func TestGuardApplyIsNeutral(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	r := f.Reg()
	pt := f.F.NewPReg()
	b.B.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: pt, Type: ir.PredU},
		ir.PredDest{}, ir.Imm(0), ir.Imm(0), ir.PNone))
	b.B.Append(&ir.Instr{Op: ir.GuardApply, Guard: pt, A: ir.Imm(1)})
	g := ir.NewInstr(ir.Mov, r, ir.Imm(5))
	g.Guard = pt
	b.B.Append(g)
	b.Store(0, 10, r)
	b.Halt()
	res, err := Run(p.Program(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word(10) != 5 {
		t.Errorf("result %d", res.Word(10))
	}
}

// TestAbsAndConversions covers the remaining FP opcodes.
func TestAbsAndConversions(t *testing.T) {
	res := run(t, 64, func(f *builder.Fn, b *builder.Blk) {
		r := f.Regs(4)
		b.Mov(r[0], -3.5)
		b.I(ir.AbsF, r[1], r[0])
		b.I(ir.CvtFI, r[2], r[1])
		b.I(ir.CvtIF, r[3], 9)
		b.I(ir.CmpEQF, r[3], r[3], 9.0)
		b.Store(0, 10, r[2]).Store(0, 11, r[3])
		b.Halt()
	})
	if res.Word(10) != 3 || res.Word(11) != 1 {
		t.Errorf("abs/cvt: %d %d", res.Word(10), res.Word(11))
	}
}
