package opt

import (
	"testing"

	"predication/internal/builder"
	"predication/internal/cfg"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/progen"
)

func TestFoldConstants(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	r := f.NewReg()
	b.Append(ir.NewInstr(ir.Add, r, ir.Imm(3), ir.Imm(4)))
	b.Append(ir.NewInstr(ir.Mul, r, ir.Imm(-2), ir.Imm(8)))
	b.Append(ir.NewInstr(ir.CmpLT, r, ir.Imm(1), ir.Imm(2)))
	b.Append(ir.NewInstr(ir.Div, r, ir.Imm(9), ir.Imm(0))) // must NOT fold
	b.Append(&ir.Instr{Op: ir.Halt})
	FoldConstants(f)
	wantImm := []int64{7, -16, 1}
	for i, w := range wantImm {
		in := b.Instrs[i]
		if in.Op != ir.Mov || in.A.Imm != w {
			t.Errorf("instr %d: %v, want mov %d", i, in, w)
		}
	}
	if b.Instrs[3].Op != ir.Div {
		t.Error("division by constant zero must not fold")
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	x, d := f.NewReg(), f.NewReg()
	cases := []*ir.Instr{
		ir.NewInstr(ir.Add, d, ir.R(x), ir.Imm(0)),
		ir.NewInstr(ir.Or, d, ir.Imm(0), ir.R(x)),
		ir.NewInstr(ir.Xor, d, ir.R(x), ir.Imm(0)),
		ir.NewInstr(ir.Mul, d, ir.R(x), ir.Imm(1)),
		ir.NewInstr(ir.Shl, d, ir.R(x), ir.Imm(0)),
		ir.NewInstr(ir.And, d, ir.R(x), ir.Imm(-1)),
	}
	b.Instrs = append(b.Instrs, cases...)
	b.Append(&ir.Instr{Op: ir.Halt})
	FoldConstants(f)
	for i, in := range b.Instrs[:len(cases)] {
		if in.Op != ir.Mov || !in.A.IsReg() || in.A.R != x {
			t.Errorf("identity %d not folded: %v", i, in)
		}
	}
}

func TestCopyPropagate(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	x, y, z := f.NewReg(), f.NewReg(), f.NewReg()
	b.Append(ir.NewInstr(ir.Mov, y, ir.R(x)))
	b.Append(ir.NewInstr(ir.Add, z, ir.R(y), ir.Imm(1))) // y -> x
	b.Append(ir.NewInstr(ir.Mov, x, ir.Imm(9)))          // invalidates the copy
	b.Append(ir.NewInstr(ir.Add, z, ir.R(y), ir.Imm(2))) // must keep y
	b.Append(&ir.Instr{Op: ir.Halt})
	CopyPropagate(f)
	if !b.Instrs[1].A.IsReg() || b.Instrs[1].A.R != x {
		t.Errorf("copy not propagated: %v", b.Instrs[1])
	}
	if !b.Instrs[3].A.IsReg() || b.Instrs[3].A.R != y {
		t.Errorf("stale copy propagated after source overwrite: %v", b.Instrs[3])
	}
}

func TestLocalCSE(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	a, c, d1, d2, d3 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b.Append(ir.NewInstr(ir.Add, d1, ir.R(a), ir.R(c)))
	b.Append(ir.NewInstr(ir.Add, d2, ir.R(a), ir.R(c))) // redundant
	b.Append(ir.NewInstr(ir.Mov, a, ir.Imm(5)))         // kills availability
	b.Append(ir.NewInstr(ir.Add, d3, ir.R(a), ir.R(c))) // must stay
	b.Append(&ir.Instr{Op: ir.Halt})
	LocalCSE(f)
	if b.Instrs[1].Op != ir.Mov || b.Instrs[1].A.R != d1 {
		t.Errorf("redundant add not CSEd: %v", b.Instrs[1])
	}
	if b.Instrs[3].Op != ir.Add {
		t.Errorf("add after operand kill wrongly CSEd: %v", b.Instrs[3])
	}
}

// TestLocalCSESelfRedefinition: an instruction that redefines one of its
// own sources (add r6, r6, r3) must not make its expression available —
// the key names the pre-definition value.  Found by cmd/predfuzz (seed
// 2650): the follow-on add was rewritten to a mov of the wrong value.
func TestLocalCSESelfRedefinition(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	r6, r3, r7 := f.NewReg(), f.NewReg(), f.NewReg()
	b.Append(ir.NewInstr(ir.Add, r6, ir.R(r6), ir.R(r3))) // r6 = old r6 + r3
	b.Append(ir.NewInstr(ir.Add, r7, ir.R(r6), ir.R(r3))) // r7 = new r6 + r3: NOT the same
	b.Append(&ir.Instr{Op: ir.Halt})
	LocalCSE(f)
	if b.Instrs[1].Op != ir.Add {
		t.Errorf("self-redefining add wrongly treated as available: %v", b.Instrs[1])
	}
}

func TestDCERemovesDeadKeepsLive(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	dead, live := f.NewReg(), f.NewReg()
	b.Append(ir.NewInstr(ir.Add, dead, ir.Imm(1), ir.Imm(2)))
	b.Append(ir.NewInstr(ir.Add, live, ir.Imm(3), ir.Imm(4)))
	b.Append(ir.NewInstr(ir.Store, ir.RNone, ir.Imm(0), ir.Imm(10), ir.R(live)))
	b.Append(&ir.Instr{Op: ir.Halt})
	deadCodeElim(f, cfg.NewGraph(f))
	if len(b.Instrs) != 3 {
		t.Fatalf("got %d instrs, want 3 (dead add removed): %v", len(b.Instrs), b.Instrs)
	}
	for _, in := range b.Instrs {
		if in.DefReg() == dead {
			t.Error("dead computation kept")
		}
	}
}

func TestDCEKeepsExceptingAndStores(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	r := f.NewReg()
	// A non-silent load whose result is unused must stay (it can trap).
	b.Append(ir.NewInstr(ir.Load, r, ir.Imm(1<<30), ir.Imm(0)))
	b.Append(&ir.Instr{Op: ir.Halt})
	deadCodeElim(f, cfg.NewGraph(f))
	if len(b.Instrs) != 2 {
		t.Error("potentially trapping load removed")
	}
	// Its silent version is removable.
	b.Instrs[0].Silent = true
	deadCodeElim(f, cfg.NewGraph(f))
	if len(b.Instrs) != 1 {
		t.Error("dead silent load kept")
	}
}

func TestDCEPredicateDefines(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.EntryBlock()
	p1, p2 := f.NewPReg(), f.NewPReg()
	r := f.NewReg()
	// p1 guards a live instruction; p2 is never used.
	b.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: p1, Type: ir.PredU}, ir.PredDest{}, ir.Imm(0), ir.Imm(0), ir.PNone))
	b.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: p2, Type: ir.PredU}, ir.PredDest{}, ir.Imm(0), ir.Imm(0), ir.PNone))
	g := ir.NewInstr(ir.Mov, r, ir.Imm(1))
	g.Guard = p1
	b.Append(g)
	b.Append(ir.NewInstr(ir.Store, ir.RNone, ir.Imm(0), ir.Imm(10), ir.R(r)))
	b.Append(&ir.Instr{Op: ir.Halt})
	deadCodeElim(f, cfg.NewGraph(f))
	n := 0
	for _, in := range b.Instrs {
		if in.Op == ir.PredDef {
			n++
			if in.P1.P == p2 {
				t.Error("dead predicate define kept")
			}
		}
	}
	if n != 1 {
		t.Errorf("%d predicate defines left, want 1", n)
	}
}

// TestCleanupPreservesSemantics runs the whole optimizer over random
// programs and compares results.
func TestCleanupPreservesSemantics(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := progen.Generate(seed, progen.Default())
		ref, err := emu.Run(src, emu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := progen.Generate(seed, progen.Default())
		p.Normalize()
		for _, f := range p.Funcs {
			Cleanup(f)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := emu.Run(p, emu.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Word(progen.CheckAddr) != ref.Word(progen.CheckAddr) {
			t.Errorf("seed %d: cleanup changed semantics", seed)
		}
	}
}

// TestCleanupIdempotent: running Cleanup twice is a no-op the second time
// (instruction counts stable).
func TestCleanupIdempotent(t *testing.T) {
	p := progen.Generate(7, progen.Default())
	p.Normalize()
	for _, f := range p.Funcs {
		Cleanup(f)
	}
	before := p.NumInstrs()
	for _, f := range p.Funcs {
		Cleanup(f)
	}
	if after := p.NumInstrs(); after != before {
		t.Errorf("cleanup not idempotent: %d -> %d", before, after)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	pb := builder.New(64)
	f := pb.Func("main")
	b := f.Entry()
	b.Halt()
	orphan := f.Block("orphan")
	orphan.Halt()
	prog := pb.P // skip verification: orphan blocks are fine pre-cleanup
	removeUnreachable(prog.Funcs[0], cfg.NewGraph(prog.Funcs[0]))
	if !prog.Funcs[0].Blocks[orphan.ID()].Dead {
		t.Error("unreachable block not marked dead")
	}
}
