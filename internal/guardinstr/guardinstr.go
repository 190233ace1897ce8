// Package guardinstr lowers fully predicated code to the guard-instruction
// encoding — the intermediate level of predication support between
// conditional moves and full predication that the paper mentions in §1
// (citing Pnevmatikatos & Sohi's guarded execution) and asks future work
// to explore in its conclusion.
//
// In this encoding the processor keeps the predicate register file and the
// predicate define opcodes of full predication, but ordinary instructions
// have no guard operand bits: a "guard p, n" prefix instruction applies
// predicate p to the next n instructions.  The model therefore retains
// full if-conversion (unlike conditional moves: no speculation-and-commit
// sequences, no renamed temporaries) while remaining encodable on an ISA
// without a spare source operand — at the price of one extra fetch/issue
// slot per run of identically guarded instructions, and of serializing
// the guard read in front of each run.
//
// The lowering runs after scheduling (so run lengths reflect the final
// instruction order) and keeps the semantic Guard fields on the covered
// instructions: the emulator executes those, making GuardApply purely a
// fetch/issue-bandwidth artifact, which is exactly the cost this design
// point pays.  Runs never extend past a control transfer, so a taken
// branch cannot leak guarding onto its target — the constraint a real
// counting implementation would need.
package guardinstr

import "predication/internal/ir"

// Lower inserts guard instructions before every maximal run of
// consecutive, identically guarded instructions.  It returns the number of
// guard instructions inserted.
func Lower(p *ir.Program) int {
	inserted := 0
	for _, f := range p.Funcs {
		for _, b := range f.LiveBlocks(nil) {
			var out []*ir.Instr
			i := 0
			for i < len(b.Instrs) {
				in := b.Instrs[i]
				g := in.Guard
				if g == ir.PNone {
					out = append(out, in)
					i++
					continue
				}
				// Collect the run: same guard, and stop after any branch.
				j := i
				for j < len(b.Instrs) && b.Instrs[j].Guard == g {
					j++
					if b.Instrs[j-1].Op.IsBranch() {
						break
					}
				}
				out = append(out, &ir.Instr{Op: ir.GuardApply, Guard: g, A: ir.Imm(int64(j - i))})
				out = append(out, b.Instrs[i:j]...)
				inserted++
				i = j
			}
			b.Instrs = out
		}
	}
	return inserted
}
