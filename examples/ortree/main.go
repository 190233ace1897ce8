// OR-tree height reduction demonstration (§3.2 of the paper).
//
// With full predicate support, OR-type defines into the same predicate may
// issue simultaneously — condition evaluation has zero dependence height.
// With partial support, each define becomes a logical OR into a general
// register, a chain of sequentially dependent instructions.  The peephole
// optimizer rebalances the chain into a binary tree, cutting its height
// from n to ceil(log2(n+1)).
//
// This example builds an 8-condition OR directly, lowers it both with and
// without the OR-tree peephole, and compares schedule lengths on an 8-issue
// machine.
package main

import (
	"fmt"
	"log"

	"predication/internal/builder"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

func buildProgram() *ir.Program {
	p := builder.New(1 << 14)
	const n = 3000
	seed := int64(99)
	vals := make([]int64, n)
	for i := range vals {
		seed = seed*6364136223846793005 + 1
		vals[i] = (seed >> 33) & 255
	}
	data := p.Words(vals...)

	f := p.Func("main")
	i, v, hits, cs := f.Reg(), f.Reg(), f.Reg(), f.Reg()

	entry := f.Entry()
	loop := f.Block("loop")
	hit := f.Block("hit")
	next := f.Block("next")
	done := f.Block("done")

	entry.Mov(i, 0).Mov(hits, 0)
	entry.Fall(loop)
	loop.Br(ir.GE, i, int64(n), done)
	loop.Load(v, i, data)
	// Eight-way OR: v equal to any of eight sentinels?  Each comparison is
	// one rarely-true condition (the && / || construct of §2.1).
	for _, k := range []int64{3, 17, 40, 77, 130, 150, 200, 251} {
		loop.Br(ir.EQ, v, k, hit)
	}
	loop.Jmp(next)
	hit.I(ir.Add, hits, hits, 1)
	hit.Fall(next)
	next.I(ir.Add, i, i, 1)
	next.Jmp(loop)
	done.I(ir.Mul, cs, hits, 65599)
	done.Store(0, 8, cs)
	done.Halt()
	return p.Program()
}

func main() {
	mc := machine.Issue8Br1()
	for _, noPeephole := range []bool{true, false} {
		opts := core.DefaultOptions(mc)
		opts.NoPeephole = noPeephole
		c, err := core.Compile(buildProgram(), core.CondMove, opts)
		if err != nil {
			log.Fatal(err)
		}
		s := sim.NewTiming(c.Prog, mc)
		if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
			log.Fatal(err)
		}
		st := s.Stats()
		label := "with OR-tree reduction"
		if noPeephole {
			label = "linear OR chain (peephole disabled)"
		}
		fmt.Printf("%-38s cycles=%-7d IPC=%.2f\n", label, st.Cycles, st.IPC())
	}
	fmt.Println("\nFull predication evaluates the same condition with zero")
	fmt.Println("dependence height (simultaneous OR-type defines):")
	c, err := core.Compile(buildProgram(), core.FullPred, core.DefaultOptions(mc))
	if err != nil {
		log.Fatal(err)
	}
	s := sim.NewTiming(c.Prog, mc)
	if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("%-38s cycles=%-7d IPC=%.2f\n", "full predication", st.Cycles, st.IPC())
}
