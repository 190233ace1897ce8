// Figure 5 reproduction: the wc inner loop compiled with full and partial
// predicate support, on the paper's example machine — a 4-issue processor
// that can issue one branch per cycle.
//
// The paper reports that hyperblock formation eliminates all but three
// branches (loop exit, the rare path, and the backedge), that the full
// predicate version needs noticeably fewer instructions than the
// conditional-move version, and that both beat the superblock baseline by
// removing essentially every misprediction.
package main

import (
	"fmt"
	"log"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/sched"
	"predication/internal/sim"
)

func main() {
	k, err := bench.ByName("wc")
	if err != nil {
		log.Fatal(err)
	}
	mc := machine.Issue4Br1() // the Figure 5 schedule machine

	for _, model := range []core.Model{core.Superblock, core.CondMove, core.FullPred} {
		c, err := core.Compile(k.Build(), model, core.DefaultOptions(mc))
		if err != nil {
			log.Fatal(err)
		}
		s := sim.NewTiming(c.Prog, mc)
		if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
			log.Fatal(err)
		}
		st := s.Stats()
		fmt.Printf("=== %v ===\n", model)
		fmt.Printf("cycles=%d  dynamic instrs=%d  branches=%d  mispredicts=%d (%.2f%%)\n",
			st.Cycles, st.Instrs, st.Branches, st.Mispredicts, 100*st.MispredictRate())
		if model != core.Superblock {
			which := "Figure 5(c)"
			if model == core.FullPred {
				which = "Figure 5(b)"
			}
			fmt.Printf("\nloop with issue cycles (compare paper %s):\n", which)
			f := c.Prog.EntryFunc()
			// The hottest block is the loop hyperblock.
			best, bestLen := -1, -1
			for _, b := range f.LiveBlocks(nil) {
				if len(b.Instrs) > bestLen {
					best, bestLen = b.ID, len(b.Instrs)
				}
			}
			fmt.Print(sched.FormatSchedule(f.Blocks[best], mc))
		}
		fmt.Println()
	}
}
