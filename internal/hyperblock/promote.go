package hyperblock

import (
	"predication/internal/cfg"
	"predication/internal/ir"
)

// Promote performs predicate promotion (§3.2, Figure 2): guarded
// instructions whose destinations are temporaries observable only under the
// same predicate have their guards removed, becoming speculative.
// Potentially excepting instructions are promoted to their silent
// (non-excepting) versions.
//
// Promotion serves two purposes in the paper: it reduces the number of
// predicated instructions that the partial-predication conversion must
// expand, and — for full predication too — it enables speculation by
// breaking the dependence between a predicate define and the predicated
// instruction, shortening critical paths.
//
// It returns the number of promoted instructions.
func Promote(f *ir.Func) int {
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)
	promoted := 0
	for _, b := range f.LiveBlocks(nil) {
		for i, in := range b.Instrs {
			if !promotable(in) {
				continue
			}
			if safeToPromote(f, lv, b, i) {
				in.Guard = ir.PNone
				if in.Op.CanExcept() {
					in.Silent = true
				}
				promoted++
			}
		}
	}
	return promoted
}

// promotable reports whether the instruction is a candidate: guarded, with
// a register destination, and not an instruction whose side effects escape
// the register file.
func promotable(in *ir.Instr) bool {
	if in.Guard == ir.PNone || in.ConditionalDef() {
		return false
	}
	switch in.Op {
	case ir.Store, ir.PredDef, ir.PredClear, ir.PredSet, ir.JSR, ir.Ret, ir.Halt:
		return false
	}
	if in.Op.IsBranch() {
		return false
	}
	return in.DefReg() != ir.RNone
}

// safeToPromote checks that the destination of the guarded instruction at
// b.Instrs[idx] is observable only under the same guard:
//
//   - every later in-block use of the destination is guarded by the same
//     predicate, until the destination is unconditionally redefined;
//   - the destination is not live at the target of any intervening exit
//     branch, nor live out of the block (unless redefined first).
func safeToPromote(f *ir.Func, lv *cfg.Liveness, b *ir.Block, idx int) bool {
	in := b.Instrs[idx]
	d := in.Dst
	p := in.Guard
	var srcBuf [4]ir.Reg
	for j := idx + 1; j < len(b.Instrs); j++ {
		u := b.Instrs[j]
		for _, s := range u.SrcRegs(srcBuf[:0]) {
			if s == d && u.Guard != p {
				return false
			}
		}
		if u.Op.IsBranch() {
			switch u.Op {
			case ir.Ret, ir.Halt, ir.JSR:
				// Calls and returns do not expose caller registers, but a
				// Halt/Ret ends observation; conservatively reject only if
				// the value could be observed, which it cannot.  JSR is
				// fine: register files are function private.
			default:
				// An exit whose guard implies this instruction's guard only
				// fires when the instruction would have executed anyway, so
				// the destination's value at the target is unaffected by
				// promotion.
				// Note: an "exit guard implies the instruction's guard"
				// exception looks safe here but is not — the value reaching
				// the exit may come from a different conditional definition
				// whose execution the implication says nothing about — so
				// liveness at the target always rejects.
				if lv.RegLiveIn(u.Target, d) {
					return false
				}
			}
		}
		// A redefinition of the guard predicate between the definition and
		// a use would desynchronize the two; reject conservatively.
		if u.Op == ir.PredClear || u.Op == ir.PredSet {
			return false
		}
		if u.Op == ir.PredDef {
			var pBuf [2]ir.PReg
			for _, w := range u.PredDefs(pBuf[:0]) {
				if w == p {
					return false
				}
			}
		}
		if u.DefReg() == d && u.Guard == ir.PNone && !u.ConditionalDef() {
			return true // unconditionally redefined: earlier value dead
		}
	}
	if !b.EndsUnconditionally() && lv.RegLiveIn(b.Fall, d) {
		return false
	}
	if b.EndsUnconditionally() {
		// The final jump's target liveness was checked in the loop above.
		return true
	}
	return true
}
