// Package opt implements the classic scalar optimizations shared by all
// compilation pipelines: unreachable-code removal, constant folding, local
// copy propagation, local common-subexpression elimination, and global dead
// code elimination.  All passes are predicate aware: a guarded definition is
// conditional and never kills the incoming value, and expression
// availability is tracked per guard.
//
// The paper applies "a comprehensive set of peephole optimizations ... to
// code both before and after conversion" (§3); this package provides that
// machinery (the partial-predication-specific peepholes such as OR-tree
// height reduction live in internal/partial).
package opt

import (
	"slices"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// Cleanup runs all scalar optimizations to a bounded fixpoint.
//
// One CFG is shared across the passes: only unreachable-block removal
// changes edges (the other passes rewrite operands or delete non-branch
// instructions), so the graph is rebuilt exactly when that pass fires.
func Cleanup(f *ir.Func) {
	g := cfg.NewGraph(f)
	for i := 0; i < 4; i++ {
		changed := removeUnreachable(f, g)
		if changed {
			g.Rebuild()
		}
		changed = FoldConstants(f) || changed
		changed = CopyPropagate(f) || changed
		changed = LocalCSE(f) || changed
		changed = deadCodeElim(f, g) || changed
		if !changed {
			return
		}
	}
}

// RemoveUnreachable marks blocks unreachable from the entry as dead.
func RemoveUnreachable(f *ir.Func) bool {
	return removeUnreachable(f, cfg.NewGraph(f))
}

func removeUnreachable(f *ir.Func, g *cfg.Graph) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		if !g.Reachable(b.ID) {
			b.Dead = true
			changed = true
		}
	}
	return changed
}

// FoldConstants evaluates instructions whose sources are all immediates,
// rewriting them to Mov of the folded constant.  Potentially excepting
// operations are only folded when they cannot trap.
func FoldConstants(f *ir.Func) bool {
	changed := false
	for _, b := range f.LiveBlocks(nil) {
		for _, in := range b.Instrs {
			if in.DefReg() == ir.RNone || in.Op == ir.Mov || in.ConditionalDef() {
				continue
			}
			if v, ok := foldable(in); ok {
				in.Op = ir.Mov
				in.A = ir.Imm(v)
				in.B = ir.Operand{}
				in.C = ir.Operand{}
				in.Silent = false
				changed = true
				continue
			}
			if src, ok := identity(in); ok {
				in.Op = ir.Mov
				in.A = src
				in.B = ir.Operand{}
				in.C = ir.Operand{}
				in.Silent = false
				changed = true
			}
		}
	}
	return changed
}

// identity recognizes algebraic identities (x+0, x|0, x^0, x*1, x<<0, ...)
// and returns the surviving operand.
func identity(in *ir.Instr) (ir.Operand, bool) {
	aImm := func(v int64) bool { return in.A.IsImm && in.A.Imm == v }
	bImm := func(v int64) bool { return in.B.IsImm && in.B.Imm == v }
	switch in.Op {
	case ir.Add, ir.Or, ir.Xor:
		if bImm(0) {
			return in.A, true
		}
		if aImm(0) {
			return in.B, true
		}
	case ir.Sub, ir.Shl, ir.Shr, ir.AndNot:
		if bImm(0) {
			return in.A, true
		}
	case ir.Mul:
		if bImm(1) {
			return in.A, true
		}
		if aImm(1) {
			return in.B, true
		}
	case ir.Div:
		if bImm(1) {
			return in.A, true
		}
	case ir.And:
		if bImm(-1) {
			return in.A, true
		}
		if aImm(-1) {
			return in.B, true
		}
	case ir.Select:
		// select d, x, x, c  ->  mov d, x
		if in.A == in.B {
			return in.A, true
		}
	}
	return ir.Operand{}, false
}

func foldable(in *ir.Instr) (int64, bool) {
	if !in.A.IsImm || !in.B.IsImm {
		return 0, false
	}
	a, b := in.A.Imm, in.B.Imm
	switch in.Op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.AndNot:
		return a &^ b, true
	case ir.OrNot:
		return a | ^b, true
	case ir.Shl:
		return a << uint64(b&63), true
	case ir.Shr:
		return a >> uint64(b&63), true
	}
	if c, ok := ir.CompareCmp(in.Op); ok {
		if ir.EvalCmp(c, a, b) {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// CopyPropagate forwards sources of unguarded register-to-register moves to
// later uses within the same block.
func CopyPropagate(f *ir.Func) bool {
	changed := false
	for _, b := range f.LiveBlocks(nil) {
		// copyOf[r] = the operand r currently mirrors.
		copyOf := map[ir.Reg]ir.Operand{}
		invalidate := func(r ir.Reg) {
			delete(copyOf, r)
			for dst, src := range copyOf {
				if src.IsReg() && src.R == r {
					delete(copyOf, dst)
				}
			}
		}
		sub := func(o *ir.Operand) {
			if !o.IsReg() {
				return
			}
			if rep, ok := copyOf[o.R]; ok {
				*o = rep
				changed = true
			}
		}
		for _, in := range b.Instrs {
			sub(&in.A)
			sub(&in.B)
			sub(&in.C)
			if d := in.DefReg(); d != ir.RNone {
				invalidate(d)
				if in.Op == ir.Mov && in.Guard == ir.PNone && (in.A.IsImm || in.A.IsReg()) {
					if !(in.A.IsReg() && in.A.R == d) {
						copyOf[d] = in.A
					}
				}
			}
			if in.Op == ir.JSR {
				// Calls do not touch caller registers, but be conservative
				// about nothing: register files are private per function.
				continue
			}
		}
	}
	return changed
}

// exprKey identifies a pure computation for local CSE.
type exprKey struct {
	op     ir.Op
	a, b   ir.Operand
	guard  ir.PReg
	silent bool
}

// LocalCSE eliminates repeated pure computations within a block.  An
// expression is reusable only under the same guard, and is invalidated when
// any source register is redefined.  Loads are not candidates (no alias
// analysis; stores would have to invalidate them).
func LocalCSE(f *ir.Func) bool {
	changed := false
	for _, b := range f.LiveBlocks(nil) {
		avail := map[exprKey]ir.Reg{}
		guardsOf := map[ir.Reg][]exprKey{} // defining reg -> dependent exprs
		invalidate := func(r ir.Reg) {
			for k, res := range avail {
				if (k.a.IsReg() && k.a.R == r) || (k.b.IsReg() && k.b.R == r) || res == r {
					delete(avail, k)
				}
			}
			delete(guardsOf, r)
		}
		for _, in := range b.Instrs {
			d := in.DefReg()
			pure := d != ir.RNone && !in.ConditionalDef() && in.Op != ir.Load &&
				in.Op != ir.Mov && in.Op != ir.Select
			if pure {
				k := exprKey{op: in.Op, a: in.A, b: in.B, guard: in.Guard, silent: in.Silent}
				if prev, ok := avail[k]; ok && prev != d {
					// Replace with a move from the previous result.
					in.Op = ir.Mov
					in.A = ir.R(prev)
					in.B = ir.Operand{}
					in.Silent = false
					changed = true
					invalidate(d)
					continue
				}
				invalidate(d)
				// An instruction that redefines one of its own sources
				// (add r6, r6, r3) must not be recorded: the key names the
				// pre-definition value, which no longer exists.
				selfRef := (in.A.IsReg() && in.A.R == d) || (in.B.IsReg() && in.B.R == d)
				if in.Guard == ir.PNone && !selfRef {
					avail[k] = d
				}
				continue
			}
			if d != ir.RNone {
				invalidate(d)
			}
			if in.Op == ir.PredDef || in.Op == ir.PredClear || in.Op == ir.PredSet {
				// Predicate updates may change guard meaning: flush guarded
				// expressions (none are cached: guard==PNone only). Nothing
				// to do.
				_ = in
			}
		}
	}
	return changed
}

// DeadCodeElim removes instructions whose results are never used.  Only
// side-effect-free instructions are removed: stores, control transfers, and
// potentially excepting non-silent operations are kept.  Predicate defines
// are removed when none of their destinations are live.
func DeadCodeElim(f *ir.Func) bool {
	return deadCodeElim(f, cfg.NewGraph(f))
}

func deadCodeElim(f *ir.Func, g *cfg.Graph) bool {
	lv := cfg.ComputeLiveness(g)
	live := lv.Walker()
	changed := false
	var srcBuf [4]ir.Reg
	var pBuf [2]ir.PReg
	var keep []*ir.Instr
	for _, b := range f.LiveBlocks(nil) {
		live.Start(b.ID)
		keep = keep[:0]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			// Mid-block exit branches make the target's live-ins live here.
			switch in.Op {
			case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
				if in.Target >= 0 {
					live.Exit(in.Target)
				}
			}
			dead := false
			switch {
			case in.Op == ir.PredDef:
				// Pure: dead when none of its destinations is live.
				dead = true
				for _, p := range in.PredDefs(pBuf[:0]) {
					if live.HasPred(p) {
						dead = false
					}
				}
			case in.DefReg() != ir.RNone:
				if !live.HasReg(in.Dst) && (!in.Op.CanExcept() || in.Silent) {
					dead = true
				}
			case in.Op == ir.Nop:
				dead = true
			}
			if dead {
				changed = true
				continue
			}
			keep = append(keep, in)
			// Update live sets walking backwards over the kept instruction.
			if d := in.DefReg(); d != ir.RNone && in.Guard == ir.PNone && !in.ConditionalDef() {
				live.KillReg(d)
			}
			if in.Op == ir.PredDef {
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if in.Guard == ir.PNone && (pd.Type == ir.PredU || pd.Type == ir.PredUBar) {
						live.KillPred(pd.P)
					}
				}
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if pd.Type != ir.PredNone && pd.Type != ir.PredU && pd.Type != ir.PredUBar {
						live.SetPred(pd.P)
					}
				}
			}
			for _, s := range in.SrcRegs(srcBuf[:0]) {
				live.SetReg(s)
			}
			if in.Guard != ir.PNone {
				live.SetPred(in.Guard)
			}
		}
		if len(keep) != len(b.Instrs) {
			slices.Reverse(keep) // collected walking backwards
			b.Instrs = slices.Clone(keep)
		}
	}
	return changed
}
