package ir

import (
	"strings"
	"testing"
)

func TestOpClassification(t *testing.T) {
	branches := []Op{Jump, BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE, JSR, Ret}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v must be a branch", op)
		}
	}
	for _, op := range []Op{Add, Load, Store, Halt, PredDef, CMov} {
		if op.IsBranch() {
			t.Errorf("%v must not be a branch", op)
		}
	}
	for _, op := range []Op{BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE} {
		if !op.IsCondBranch() {
			t.Errorf("%v must be conditional", op)
		}
	}
	if Jump.IsCondBranch() || JSR.IsCondBranch() {
		t.Error("Jump/JSR are unconditional")
	}
	for _, op := range []Op{Div, Rem, DivF, Load, Store} {
		if !op.CanExcept() {
			t.Errorf("%v can except", op)
		}
	}
	for _, op := range []Op{Add, Mov, CMov, Jump} {
		if op.CanExcept() {
			t.Errorf("%v cannot except", op)
		}
	}
	if Store.HasDst() || Jump.HasDst() || PredDef.HasDst() {
		t.Error("HasDst wrong for side-effect ops")
	}
	if !Add.HasDst() || !Load.HasDst() || !CMov.HasDst() || !Select.HasDst() {
		t.Error("HasDst wrong for value ops")
	}
}

func TestSrcRegsAndDefs(t *testing.T) {
	r := func(i int32) Reg { return Reg(i) }
	cases := []struct {
		in   *Instr
		want []Reg
		def  Reg
	}{
		{NewInstr(Add, r(1), R(r(2)), R(r(3))), []Reg{2, 3}, 1},
		{NewInstr(Add, r(1), R(r(2)), Imm(5)), []Reg{2}, 1},
		{NewInstr(Mov, r(1), R(r(2))), []Reg{2}, 1},
		{NewInstr(Store, RNone, R(r(2)), Imm(0), R(r(3))), []Reg{2, 3}, RNone},
		{NewInstr(Load, r(1), R(r(2)), Imm(4)), []Reg{2}, 1},
		{NewInstr(Select, r(1), R(r(2)), R(r(3)), R(r(4))), []Reg{2, 3, 4}, 1},
		{&Instr{Op: Jump, Target: 0}, nil, RNone},
	}
	for _, c := range cases {
		got := c.in.SrcRegs(nil)
		if len(got) != len(c.want) {
			t.Errorf("%v: srcs %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: srcs %v, want %v", c.in, got, c.want)
			}
		}
		if c.in.DefReg() != c.def {
			t.Errorf("%v: def %v, want %v", c.in, c.in.DefReg(), c.def)
		}
	}
	// CMov reads its destination (conditional write preserves old value).
	cm := &Instr{Op: CMov, Dst: 5, A: R(6), C: R(7)}
	srcs := cm.SrcRegs(nil)
	found := false
	for _, s := range srcs {
		if s == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("cmov must read its destination, got %v", srcs)
	}
	if !cm.ConditionalDef() {
		t.Error("cmov is a conditional definition")
	}
	sel := &Instr{Op: Select, Dst: 5, A: R(6), B: R(7), C: R(8)}
	if sel.ConditionalDef() {
		t.Error("select writes unconditionally")
	}
}

func TestInstrString(t *testing.T) {
	in := NewPredDef(EQ,
		PredDest{P: 1, Type: PredOR}, PredDest{P: 3, Type: PredUBar},
		R(4), Imm(0), 2)
	s := in.String()
	for _, want := range []string{"pred_eq", "p1_OR", "p3_U~", "r4", "(p2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	br := NewBranch(LT, R(2), R(3), 7)
	if got := br.String(); !strings.Contains(got, "blt r2, r3, B7") {
		t.Errorf("branch string %q", got)
	}
	ld := &Instr{Op: Load, Dst: 1, A: R(2), B: Imm(16), Silent: true}
	if got := ld.String(); !strings.Contains(got, "load_s") {
		t.Errorf("silent load string %q", got)
	}
}

// TestInstrStringForms pins the exact text of every syntactic class,
// guarded and silent forms and the absent register and predicate
// included: asm listings, golden hashes and diagnostics all carry it.
func TestInstrStringForms(t *testing.T) {
	for _, c := range []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: Nop}, "nop"},
		{&Instr{Op: Halt, Guard: 3}, "halt (p3)"},
		{&Instr{Op: Ret}, "ret"},
		{&Instr{Op: PredClear, Guard: 1}, "pred_clear (p1)"},
		{&Instr{Op: PredSet}, "pred_set"},
		{&Instr{Op: GuardApply, Guard: 5, A: Imm(2)}, "guard p5, 2"},
		{&Instr{Op: Jump, Target: 12, Guard: 2}, "jump B12 (p2)"},
		{&Instr{Op: JSR, Target: 1}, "jsr F1"},
		{NewBranch(GE, R(2), Imm(-3), 7), "bge r2, -3, B7"},
		{NewPredDef(EQ, PredDest{P: 1, Type: PredOR}, PredDest{P: 3, Type: PredUBar}, R(4), Imm(0), 2),
			"pred_eq p1_OR, p3_U~, r4, 0 (p2)"},
		{NewPredDef(LTF, PredDest{P: 4, Type: PredANDBar}, PredDest{}, R(1), R(2), PNone),
			"pred_lt_f p4_AND~, r1, r2"},
		{NewPredDef(NE, PredDest{}, PredDest{P: 6, Type: PredU}, R(1), Imm(9), PNone),
			"pred_ne p6_U, r1, 9"},
		{&Instr{Op: Store, A: R(1), B: Imm(16), C: R(9), Silent: true, Guard: 4}, "store_s r1, 16, r9 (p4)"},
		{&Instr{Op: Load, Dst: 1, A: R(2), B: Imm(16), Silent: true}, "load_s r1, r2, 16"},
		{&Instr{Op: Mov, Dst: 8, A: Imm(-9223372036854775808)}, "mov r8, -9223372036854775808"},
		{&Instr{Op: CvtFI, Dst: 2, A: R(0)}, "cvt_fi r2, r_none"},
		{&Instr{Op: CMov, Dst: 3, A: R(4), C: R(5), Guard: 1}, "cmov r3, r4, r5 (p1)"},
		{&Instr{Op: CMovCom, Dst: 3, A: Imm(4), C: R(5)}, "cmov_com r3, 4, r5"},
		{&Instr{Op: Select, Dst: 3, A: R(1), B: R(2), C: R(2147483647)}, "select r3, r1, r2, r2147483647"},
		{&Instr{Op: Div, Dst: 7, A: R(7), B: Imm(1), Silent: true, Guard: 10}, "div_s r7, r7, 1 (p10)"},
		{&Instr{Op: AddF, Dst: 7, A: R(7), B: R(8)}, "add_f r7, r7, r8"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if got := string(c.in.AppendTo([]byte("x"))); got != "x"+c.want {
			t.Errorf("AppendTo = %q, want %q", got, "x"+c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	in := NewInstr(Add, 1, R(2), R(3))
	cp := in.Clone()
	cp.Dst = 9
	cp.A = Imm(7)
	if in.Dst != 1 || !in.A.IsReg() {
		t.Error("clone aliases original")
	}
}

func TestFuncClone(t *testing.T) {
	f := NewFunc("t")
	b := f.EntryBlock()
	r1 := f.NewReg()
	b.Append(NewInstr(Mov, r1, Imm(1)))
	next := f.NewBlock()
	b.Fall = next.ID
	next.Append(&Instr{Op: Halt})

	cp := f.Clone()
	cp.Blocks[f.Entry].Instrs[0].A = Imm(99)
	if f.Blocks[f.Entry].Instrs[0].A.Imm != 1 {
		t.Error("function clone shares instructions")
	}
	if cp.NextReg != f.NextReg || cp.Entry != f.Entry {
		t.Error("clone metadata mismatch")
	}
}

func TestProgramAddresses(t *testing.T) {
	p := NewProgram(64)
	f := NewFunc("main")
	b := f.EntryBlock()
	for i := 0; i < 5; i++ {
		b.Append(NewInstr(Mov, f.NewReg(), Imm(int64(i))))
	}
	b.Append(&Instr{Op: Halt})
	p.AddFunc(f)
	size := p.AssignAddresses()
	if size != 6*InstrBytes {
		t.Errorf("code size %d, want %d", size, 6*InstrBytes)
	}
	for i, in := range b.Instrs {
		if in.Addr != int32(i*InstrBytes) {
			t.Errorf("instr %d addr %d", i, in.Addr)
		}
	}
}

func TestBlockSuccs(t *testing.T) {
	f := NewFunc("t")
	b := f.EntryBlock()
	b2, b3 := f.NewBlock(), f.NewBlock()
	b.Append(NewBranch(EQ, R(f.NewReg()), Imm(0), b2.ID))
	b.Fall = b3.ID
	succs := b.Succs(nil)
	if len(succs) != 2 || succs[0] != b2.ID || succs[1] != b3.ID {
		t.Errorf("succs %v", succs)
	}
	// Unconditional jump: no fallthrough successor.
	b3.Append(&Instr{Op: Jump, Target: b2.ID})
	if got := b3.Succs(nil); len(got) != 1 || got[0] != b2.ID {
		t.Errorf("jump succs %v", got)
	}
	// Guarded jump can fall through.
	b2.Append(&Instr{Op: Jump, Target: b3.ID, Guard: 1})
	b2.Fall = b3.ID
	if got := b2.Succs(nil); len(got) != 1 {
		t.Errorf("guarded jump succs %v (duplicates must merge)", got)
	}
}

func TestVerifyCatches(t *testing.T) {
	mk := func() (*Program, *Func) {
		p := NewProgram(64)
		f := NewFunc("main")
		f.EntryBlock().Append(&Instr{Op: Halt})
		p.AddFunc(f)
		return p, f
	}
	p, f := mk()
	if err := p.Verify(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	// Branch to a dead block.
	p, f = mk()
	dead := f.NewBlock()
	dead.Dead = true
	f.EntryBlock().InsertAt(0, &Instr{Op: Jump, Target: dead.ID})
	if err := p.Verify(); err == nil {
		t.Error("branch to dead block accepted")
	}
	// Fallthrough to nowhere.
	p, f = mk()
	f.EntryBlock().Instrs = []*Instr{NewInstr(Mov, f.NewReg(), Imm(0))}
	f.EntryBlock().Fall = -1
	if err := p.Verify(); err == nil {
		t.Error("dangling fallthrough accepted")
	}
	// Register out of range.
	p, f = mk()
	f.EntryBlock().InsertAt(0, NewInstr(Mov, 999, Imm(0)))
	if err := p.Verify(); err == nil {
		t.Error("unallocated register accepted")
	}
	// Predicate define with no destinations.
	p, f = mk()
	f.EntryBlock().InsertAt(0, &Instr{Op: PredDef, Cmp: EQ, A: Imm(0), B: Imm(0)})
	if err := p.Verify(); err == nil {
		t.Error("empty predicate define accepted")
	}
	// Silent flag on a non-excepting op.
	p, f = mk()
	in := NewInstr(Add, f.NewReg(), Imm(1), Imm(2))
	in.Silent = true
	f.EntryBlock().InsertAt(0, in)
	if err := p.Verify(); err == nil {
		t.Error("silent add accepted")
	}
	// Missing destination.
	p, f = mk()
	f.EntryBlock().InsertAt(0, &Instr{Op: Add, A: Imm(1), B: Imm(2)})
	if err := p.Verify(); err == nil {
		t.Error("add without destination accepted")
	}
}

func TestNormalize(t *testing.T) {
	p := NewProgram(64)
	f := NewFunc("main")
	b := f.EntryBlock()
	r := f.NewReg()
	done := f.NewBlock()
	done.Append(&Instr{Op: Halt})
	// Multi-exit block: two mid-block branches plus a tail.
	b.Append(NewInstr(Mov, r, Imm(1)))
	b.Append(NewBranch(EQ, R(r), Imm(0), done.ID))
	b.Append(NewInstr(Add, r, R(r), Imm(1)))
	b.Append(NewBranch(EQ, R(r), Imm(5), done.ID))
	b.Append(NewInstr(Add, r, R(r), Imm(2)))
	b.Append(&Instr{Op: Jump, Target: done.ID})
	p.AddFunc(f)
	p.Normalize()
	if err := p.Verify(); err != nil {
		t.Fatalf("normalize broke program: %v", err)
	}
	for _, blk := range f.LiveBlocks(nil) {
		for i, in := range blk.Instrs {
			if in.Op.IsBranch() && in.Op != JSR && i != len(blk.Instrs)-1 {
				t.Errorf("B%d still has a mid-block branch at %d", blk.ID, i)
			}
		}
	}
	// Unreachable tail after an unconditional jump is dropped.
	p2 := NewProgram(64)
	f2 := NewFunc("main")
	b2 := f2.EntryBlock()
	d2 := f2.NewBlock()
	d2.Append(&Instr{Op: Halt})
	b2.Append(&Instr{Op: Jump, Target: d2.ID})
	b2.Append(NewInstr(Mov, f2.NewReg(), Imm(9))) // unreachable
	p2.AddFunc(f2)
	p2.Normalize()
	if n := len(f2.EntryBlock().Instrs); n != 1 {
		t.Errorf("unreachable tail kept: %d instrs", n)
	}
}

func TestBlockEditing(t *testing.T) {
	f := NewFunc("t")
	b := f.EntryBlock()
	mk := func(v int64) *Instr { return NewInstr(Mov, f.NewReg(), Imm(v)) }
	b.Append(mk(0), mk(2))
	b.InsertAt(1, mk(1))
	if len(b.Instrs) != 3 {
		t.Fatalf("len %d", len(b.Instrs))
	}
	for i, in := range b.Instrs {
		if in.A.Imm != int64(i) {
			t.Errorf("instr %d holds %d", i, in.A.Imm)
		}
	}
	b.RemoveAt(1)
	if len(b.Instrs) != 2 || b.Instrs[1].A.Imm != 2 {
		t.Errorf("remove failed: %v", b.Instrs)
	}
	if b.Terminator() != b.Instrs[1] {
		t.Error("terminator is the last instruction")
	}
	var empty Block
	if empty.Terminator() != nil {
		t.Error("empty block has no terminator")
	}
}

func TestEndsUnconditionally(t *testing.T) {
	f := NewFunc("t")
	b := f.EntryBlock()
	tgt := f.NewBlock()
	tgt.Append(&Instr{Op: Halt})
	b.Append(&Instr{Op: Jump, Target: tgt.ID})
	if !b.EndsUnconditionally() {
		t.Error("jump ends the block")
	}
	b.Instrs[0].Guard = 1 // guarded jump can fall through
	if b.EndsUnconditionally() {
		t.Error("guarded jump does not end the block")
	}
	b.Instrs[0] = &Instr{Op: Ret}
	if !b.EndsUnconditionally() {
		t.Error("ret ends the block")
	}
}

func TestProgramString(t *testing.T) {
	p := NewProgram(64)
	f := NewFunc("main")
	f.EntryBlock().Append(&Instr{Op: Halt})
	p.AddFunc(f)
	s := p.String()
	for _, want := range []string{"func F0 main:", "B0:", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("program string missing %q:\n%s", want, s)
		}
	}
}

func TestF2IRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, 1e100, -1e-9} {
		if I2F(F2I(v)) != v {
			t.Errorf("round trip %v", v)
		}
	}
}
