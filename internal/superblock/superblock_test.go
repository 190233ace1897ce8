package superblock

import (
	"testing"

	"predication/internal/builder"
	"predication/internal/cfg"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/progen"
)

// buildBiasedLoop: a loop whose body takes the hot path 90% of the time.
func buildBiasedLoop() *ir.Program {
	p := builder.New(1 << 12)
	const n = 300
	vals := make([]int64, n)
	s := uint64(11)
	for i := range vals {
		s = s*6364136223846793005 + 1
		vals[i] = int64((s >> 30) % 10) // 0..9; value 0 is the cold path
	}
	data := p.Words(vals...)
	f := p.Func("main")
	i, v, hot, cold := f.Reg(), f.Reg(), f.Reg(), f.Reg()
	entry := f.Entry()
	hdr := f.Block("hdr")
	hotB := f.Block("hot")
	coldB := f.Block("cold")
	join := f.Block("join")
	done := f.Block("done")
	entry.Mov(i, 0).Mov(hot, 0).Mov(cold, 0)
	entry.Fall(hdr)
	hdr.Br(ir.GE, i, n, done)
	hdr.Load(v, i, data)
	hdr.Br(ir.EQ, v, 0, coldB) // ~10%
	hdr.Fall(hotB)
	hotB.I(ir.Add, hot, hot, v)
	hotB.Jmp(join)
	coldB.I(ir.Add, cold, cold, 1)
	coldB.Fall(join)
	join.I(ir.Add, i, i, 1)
	join.Jmp(hdr)
	done.I(ir.Mul, hot, hot, 1000)
	done.I(ir.Add, hot, hot, cold)
	done.Store(0, 8, hot)
	done.Halt()
	return p.Program()
}

func TestFormationMergesHotPath(t *testing.T) {
	ref, err := emu.Run(buildBiasedLoop(), emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := buildBiasedLoop()
	p.Normalize()
	prof := cfg.NewProfile()
	if _, err := emu.Run(p, emu.Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	before := len(p.Funcs[0].LiveBlocks(nil))
	Form(p, prof, DefaultParams())
	if err := p.Verify(); err != nil {
		t.Fatalf("formation broke program: %v", err)
	}
	after := len(p.Funcs[0].LiveBlocks(nil))
	if after >= before {
		t.Errorf("no blocks merged: %d -> %d", before, after)
	}
	got, err := emu.Run(p, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Word(8) != ref.Word(8) {
		t.Fatalf("superblock formation changed semantics")
	}
	// The trace head must now contain a mid-block exit branch (the cold
	// path) followed by the hot body.
	var head *ir.Block
	for _, b := range p.Funcs[0].LiveBlocks(nil) {
		if b.Name == "hdr" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("trace head lost")
	}
	var exits []int
	for i, in := range head.Instrs {
		if in.Op.IsBranch() {
			exits = append(exits, i)
		}
	}
	if len(exits) < 2 {
		t.Errorf("merged trace should contain mid-block exits: %v", exits)
	}
}

// TestTailDuplication: the cold side entrance into the join must be
// redirected into a duplicate, keeping the trace single entry.
func TestTailDuplication(t *testing.T) {
	p := buildBiasedLoop()
	p.Normalize()
	prof := cfg.NewProfile()
	emu.Run(p, emu.Options{Profile: prof})
	Form(p, prof, DefaultParams())
	// A duplicate block must exist.
	foundDup := false
	for _, b := range p.Funcs[0].LiveBlocks(nil) {
		if len(b.Name) > 4 && b.Name[len(b.Name)-4:] == ".dup" {
			foundDup = true
		}
	}
	if !foundDup {
		t.Error("expected tail-duplicated blocks")
	}
}

// TestFormationPreservesRandomPrograms fuzzes the formation pass alone.
func TestFormationPreservesRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := progen.Generate(seed, progen.Default())
		ref, err := emu.Run(src, emu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := progen.Generate(seed, progen.Default())
		p.Normalize()
		prof := cfg.NewProfile()
		if _, err := emu.Run(p, emu.Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		Form(p, prof, DefaultParams())
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := emu.Run(p, emu.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Word(progen.CheckAddr) != ref.Word(progen.CheckAddr) {
			t.Errorf("seed %d: semantics changed", seed)
		}
	}
}

func TestBestSuccessorThreshold(t *testing.T) {
	// A 50/50 branch must not extend a trace (probability threshold).
	p := builder.New(1 << 12)
	f := p.Func("main")
	i, v := f.Reg(), f.Reg()
	entry := f.Entry()
	hdr := f.Block("hdr")
	a := f.Block("a")
	bb := f.Block("b")
	join := f.Block("join")
	done := f.Block("done")
	entry.Mov(i, 0)
	entry.Fall(hdr)
	hdr.Br(ir.GE, i, 100, done)
	hdr.I(ir.And, v, i, 1)
	hdr.Br(ir.EQ, v, 0, a) // alternates: exactly 50%
	hdr.Fall(bb)
	a.I(ir.Add, i, i, 1)
	a.Jmp(join)
	bb.I(ir.Add, i, i, 1)
	bb.Fall(join)
	join.Jmp(hdr)
	done.Store(0, 8, i)
	done.Halt()
	prog := p.Program()
	prog.Normalize()
	prof := cfg.NewProfile()
	emu.Run(prog, emu.Options{Profile: prof})
	g := cfg.NewGraph(prog.Funcs[0])
	_ = g
	// Find the split block holding the 50/50 branch and ask for its best
	// successor.
	for _, b := range prog.Funcs[0].LiveBlocks(nil) {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.BrEQ {
			if _, ok := bestSuccessor(prog.Funcs[0], prof, DefaultParams(), b.ID); ok {
				t.Error("50/50 branch extended a trace")
			}
		}
	}
}
