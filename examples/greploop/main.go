// Figure 6 reproduction: the grep scan loop under the three models.
//
// The paper's grep discussion highlights two transformations:
//
//   - branch combining: the loop's many rarely-taken exit branches are
//     replaced by OR-type predicate defines accumulating into one exit
//     predicate, with a single predicated jump to a dispatch block (Table 3
//     shows grep's dynamic branches dropping from 663K to 171K);
//   - OR-tree height reduction for the partial-predication model: the
//     logical OR instructions that stand in for OR-type defines are
//     rebalanced from a linear chain into a log-depth tree.
//
// It also reproduces grep's misprediction anomaly: the combined exit
// mispredicts more than the original branches did, so the predicated
// models show a higher misprediction rate than superblock.
package main

import (
	"fmt"
	"log"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

func main() {
	k, err := bench.ByName("grep")
	if err != nil {
		log.Fatal(err)
	}
	mc := machine.Issue8Br1()

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
		fmt.Printf("cycles=%d  instrs=%d  branches=%d  mispredicts=%d (MPR %.2f%%)\n\n",
			st.Cycles, st.Instrs, st.Branches, st.Mispredicts, 100*st.MispredictRate())

		// Show the scan loop itself for the predicated models.
		if model != core.Superblock {
			b := hottest(c.Prog.EntryFunc())
			fmt.Printf("scan loop (block B%d):\n", b.ID)
			for _, in := range b.Instrs {
				fmt.Printf("\t%s\n", in)
			}
			fmt.Println()
		}
	}
}

func hottest(f *ir.Func) *ir.Block {
	var best *ir.Block
	for _, b := range f.LiveBlocks(nil) {
		if best == nil || len(b.Instrs) > len(best.Instrs) {
			// The merged scan loop is the largest block in this program.
			best = b
		}
	}
	return best
}
