// Quickstart: build a small program with the IR builder, compile it under
// all three predication models, and compare simulated performance on the
// paper's 8-issue, 1-branch processor.
//
// The program is a classic if-conversion candidate: a loop with a
// data-dependent diamond (count positive and negative values of a
// pseudo-random array).
package main

import (
	"fmt"
	"log"

	"predication/internal/bench"
	"predication/internal/builder"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

func buildProgram() *ir.Program {
	p := builder.New(1 << 16)

	// Input data: 2000 pseudo-random signed words.
	const n = 2000
	seed := int64(12345)
	vals := make([]int64, n)
	for i := range vals {
		seed = seed*6364136223846793005 + 1442695040888963407
		vals[i] = (seed >> 40) % 1000
	}
	data := p.Words(vals...)

	f := p.Func("main")
	i, v, pos, neg, cs := f.Reg(), f.Reg(), f.Reg(), f.Reg(), f.Reg()

	entry := f.Entry()
	loop := f.Block("loop")
	isPos := f.Block("positive")
	isNeg := f.Block("negative")
	join := f.Block("join")
	done := f.Block("done")

	entry.Mov(i, 0).Mov(pos, 0).Mov(neg, 0)
	entry.Fall(loop)
	loop.Br(ir.GE, i, int64(n), done)
	loop.Load(v, i, data)
	loop.Br(ir.LT, v, 0, isNeg) // unpredictable: ~50/50
	loop.Fall(isPos)
	isPos.I(ir.Add, pos, pos, v)
	isPos.Jmp(join)
	isNeg.I(ir.Sub, neg, neg, v)
	isNeg.Fall(join)
	join.I(ir.Add, i, i, 1)
	join.Jmp(loop)
	done.I(ir.Mul, cs, pos, 31)
	done.I(ir.Add, cs, cs, neg)
	done.Store(0, bench.CheckAddr, cs)
	done.Halt()
	return p.Program()
}

func main() {
	mc := machine.Issue8Br1()
	base := machine.Issue1()

	// 1-issue superblock baseline: the paper's speedup denominator.
	cb, err := core.Compile(buildProgram(), core.Superblock, core.DefaultOptions(base))
	if err != nil {
		log.Fatal(err)
	}
	sb := sim.NewTiming(cb.Prog, base)
	if _, err := emu.Run(cb.Prog, emu.Options{Sink: sb}); err != nil {
		log.Fatal(err)
	}
	baseCycles := sb.Stats().Cycles

	fmt.Printf("%-18s %9s %9s %9s %8s %12s\n",
		"model", "cycles", "instrs", "branches", "mispred", "speedup-vs-1")
	for _, model := range []core.Model{core.Superblock, core.CondMove, core.FullPred} {
		c, err := core.Compile(buildProgram(), model, core.DefaultOptions(mc))
		if err != nil {
			log.Fatal(err)
		}
		s := sim.NewTiming(c.Prog, mc)
		if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
			log.Fatal(err)
		}
		st := s.Stats()
		fmt.Printf("%-18v %9d %9d %9d %8d %11.2fx\n",
			model, st.Cycles, st.Instrs, st.Branches, st.Mispredicts,
			float64(baseCycles)/float64(st.Cycles))
	}
	fmt.Println("\nThe unpredictable diamond mispredicts constantly under the")
	fmt.Println("superblock model; both predicated models eliminate it entirely.")
}
