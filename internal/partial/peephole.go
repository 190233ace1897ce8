package partial

import (
	"predication/internal/cfg"
	"predication/internal/ir"
)

// Peephole applies the partial-predication-specific cleanups of §3.2 after
// the basic conversions:
//
//   - move forwarding: "mov t,x ; cmov d,t,p" becomes "cmov d,x,p" when t
//     is otherwise unused;
//   - comparison inversion: one of two complementary comparisons is
//     eliminated when every use of its result can be inverted for free
//     (and <-> and_not, cmov <-> cmov_com, select operand swap);
//   - OR-tree height reduction (ortree.go).
//
// Generic redundancy (duplicate comparisons, copies, dead code) is handled
// by internal/opt, which the pipeline runs around this pass.
func Peephole(p *ir.Program) {
	for _, f := range p.Funcs {
		invertComparisons(f)
		normalizeComplements(f)
		forwardMoves(f)
		ReduceORTrees(f)
	}
}

// forwardMoves rewrites "mov t, x ; ... ; cmov d, t, p" to use x directly
// when t has exactly that one use and is not live out of the block.
func forwardMoves(f *ir.Func) {
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)
	var srcBuf [4]ir.Reg
	for _, b := range f.LiveBlocks(nil) {
		// Count in-block uses of each register.
		uses := map[ir.Reg]int{}
		for _, in := range b.Instrs {
			for _, s := range in.SrcRegs(srcBuf[:0]) {
				uses[s]++
			}
		}
		movOf := map[ir.Reg]*ir.Instr{}
		for _, in := range b.Instrs {
			if in.Op == ir.Mov && in.Guard == ir.PNone && in.A.IsReg() {
				movOf[in.Dst] = in
			} else if d := in.DefReg(); d != ir.RNone {
				delete(movOf, d)
			}
			if (in.Op == ir.CMov || in.Op == ir.CMovCom) && in.A.IsReg() {
				t := in.A.R
				if m, ok := movOf[t]; ok && uses[t] == 1 && !lv.RegLiveOut(b.ID, t) {
					// The mov's source must not be redefined in between;
					// movOf tracking guarantees it (any redefinition of the
					// source would... be checked below).
					if !redefinedBetween(b, m, in, m.A.R) {
						in.A = m.A
					}
				}
			}
			// Invalidate moves whose source register is overwritten.
			if d := in.DefReg(); d != ir.RNone {
				for t, m := range movOf {
					if m.A.IsReg() && m.A.R == d {
						delete(movOf, t)
					}
				}
			}
		}
	}
}

// redefinedBetween reports whether reg is (possibly) written between
// instructions from and to within block b.
func redefinedBetween(b *ir.Block, from, to *ir.Instr, reg ir.Reg) bool {
	seen := false
	for _, in := range b.Instrs {
		if in == from {
			seen = true
			continue
		}
		if in == to {
			return false
		}
		if seen && in.DefReg() == reg {
			return true
		}
	}
	return false
}

// cmpKey identifies a comparison expression.
type cmpKey struct {
	c    ir.Cmp
	a, b ir.Operand
}

// cmpDefRec records where a comparison result was computed.
type cmpDefRec struct {
	idx int
	in  *ir.Instr
}

// invertComparisons finds complementary comparison pairs within each block
// and rewrites the second comparison's uses in terms of the first, when
// every use is invertible without extra instructions (§3.2).  The now-dead
// second comparison is left for dead-code elimination.
func invertComparisons(f *ir.Func) {
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)
	for _, b := range f.LiveBlocks(nil) {
		defs := map[cmpKey]cmpDefRec{}
		for i, in := range b.Instrs {
			c, ok := ir.CompareCmp(in.Op)
			if !ok || in.Guard != ir.PNone {
				if d := in.DefReg(); d != ir.RNone {
					invalidateCmpDefs(defs, d)
				}
				continue
			}
			k := cmpKey{c, in.A, in.B}
			if prev, found := defs[cmpKey{c.Invert(), in.A, in.B}]; found &&
				!lv.RegLiveOut(b.ID, in.Dst) &&
				operandsStable(b, prev.idx, i, in.A, in.B) {
				tryInvertUses(b, i, in.Dst, prev.in.Dst)
			}
			invalidateCmpDefs(defs, in.Dst)
			defs[k] = cmpDefRec{i, in}
		}
	}
}

func invalidateCmpDefs(defs map[cmpKey]cmpDefRec, d ir.Reg) {
	for k, v := range defs {
		if v.in.Dst == d || (k.a.IsReg() && k.a.R == d) || (k.b.IsReg() && k.b.R == d) {
			delete(defs, k)
		}
	}
}

// operandsStable reports whether the comparison operands are unmodified
// between the two instruction indices.
func operandsStable(b *ir.Block, from, to int, a, bb ir.Operand) bool {
	for j := from + 1; j < to; j++ {
		d := b.Instrs[j].DefReg()
		if d == ir.RNone {
			continue
		}
		if (a.IsReg() && a.R == d) || (bb.IsReg() && bb.R == d) {
			return false
		}
	}
	return true
}

// tryInvertUses rewrites every use of reg t2 (defined at index idx) in terms
// of its complement t1.  It reports whether all uses were invertible; on
// failure no change is made.
func tryInvertUses(b *ir.Block, idx int, t2, t1 ir.Reg) bool {
	type edit func()
	var edits []edit
	var srcBuf [4]ir.Reg
	for j := idx + 1; j < len(b.Instrs); j++ {
		in := b.Instrs[j]
		usesT2 := false
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			if s == t2 {
				usesT2 = true
			}
		}
		if usesT2 {
			in := in
			switch {
			case in.Op == ir.And && in.B.IsReg() && in.B.R == t2 && !(in.A.IsReg() && in.A.R == t2):
				edits = append(edits, func() { in.Op = ir.AndNot; in.B = ir.R(t1) })
			case in.Op == ir.AndNot && in.B.IsReg() && in.B.R == t2 && !(in.A.IsReg() && in.A.R == t2):
				edits = append(edits, func() { in.Op = ir.And; in.B = ir.R(t1) })
			case in.Op == ir.CMov && in.C.IsReg() && in.C.R == t2 && !(in.A.IsReg() && in.A.R == t2) && in.Dst != t2:
				edits = append(edits, func() { in.Op = ir.CMovCom; in.C = ir.R(t1) })
			case in.Op == ir.CMovCom && in.C.IsReg() && in.C.R == t2 && !(in.A.IsReg() && in.A.R == t2) && in.Dst != t2:
				edits = append(edits, func() { in.Op = ir.CMov; in.C = ir.R(t1) })
			case in.Op == ir.Select && in.C.IsReg() && in.C.R == t2 &&
				!(in.A.IsReg() && in.A.R == t2) && !(in.B.IsReg() && in.B.R == t2):
				edits = append(edits, func() { in.A, in.B = in.B, in.A; in.C = ir.R(t1) })
			default:
				return false
			}
		}
		// t1 must stay valid up to the last rewritten use.
		if d := in.DefReg(); d == t1 {
			return false
		}
		if d := in.DefReg(); d == t2 && in.Guard == ir.PNone && !in.ConditionalDef() {
			break // t2 redefined: no further uses of our value
		}
	}
	// The caller has verified t2 is not live out of the block, so all uses
	// are accounted for; apply the edits.
	for _, e := range edits {
		e()
	}
	return true
}

// FuseSelects replaces complementary conditional-move pairs on the same
// destination and condition
//
//	cmov     d, x, c
//	cmov_com d, y, c
//
// with a single "select d, x, y, c" — §2.2's point that selects let the
// compiler choose between then- and else-path values directly, saving an
// instruction and breaking the serial dependence through d.  Applied only
// when the target provides select (Options.UseSelect).
func FuseSelects(p *ir.Program) int {
	fused := 0
	for _, f := range p.Funcs {
		g := cfg.NewGraph(f)
		lv := cfg.ComputeLiveness(g)
		for _, b := range f.LiveBlocks(nil) {
			fused += fuseSelectsInBlock(lv, b)
		}
	}
	return fused
}

func fuseSelectsInBlock(lv *cfg.Liveness, b *ir.Block) int {
	fused := 0
	for i := 0; i < len(b.Instrs); i++ {
		first := b.Instrs[i]
		if (first.Op != ir.CMov && first.Op != ir.CMovCom) || !first.C.IsReg() {
			continue
		}
		d, c := first.Dst, first.C.R
		// Find the complementary partner.
		for j := i + 1; j < len(b.Instrs); j++ {
			in := b.Instrs[j]
			if (in.Op == ir.CMov || in.Op == ir.CMovCom) &&
				in.Op != first.Op && in.Dst == d && in.C.IsReg() && in.C.R == c {
				if !fusable(lv, b, i, j) {
					break
				}
				var thenV, elseV ir.Operand
				if first.Op == ir.CMov {
					thenV, elseV = first.A, in.A
				} else {
					thenV, elseV = in.A, first.A
				}
				b.Instrs[j] = &ir.Instr{Op: ir.Select, Dst: d, A: thenV, B: elseV, C: ir.R(c)}
				b.RemoveAt(i)
				fused++
				i--
				break
			}
			// A redefinition of d or c between the pair kills the pattern
			// outright; reads of d are judged by fusable when the partner
			// is found.
			if in.DefReg() == d || in.DefReg() == c {
				break
			}
		}
	}
	return fused
}

// fusable decides whether the complementary pair at (i, j) may fuse.
// After fusion the first move no longer executes, so every instruction
// between them that reads the destination sees the PRE-pair value instead
// of the conditionally updated one.  That is only equivalent when such a
// reader exists purely to compute the second move's value operand — the
// standard speculative else-arm of a converted diamond — i.e. its result
// feeds (transitively) only the second move's source, and dies with it.
func fusable(lv *cfg.Liveness, b *ir.Block, i, j int) bool {
	first, second := b.Instrs[i], b.Instrs[j]
	d := first.Dst
	// Sources of the surviving select must be unmodified in between.
	if first.A.IsReg() && regDefinedBetween(b, i, j, first.A.R) {
		return false
	}
	// Walk backward from the second move marking the registers that feed
	// its value operand.
	needed := map[ir.Reg]bool{}
	if second.A.IsReg() {
		needed[second.A.R] = true
	}
	var srcBuf [4]ir.Reg
	feeders := map[int]bool{}
	for k := j - 1; k > i; k-- {
		u := b.Instrs[k]
		if du := u.DefReg(); du != ir.RNone && needed[du] && !u.ConditionalDef() && u.Guard == ir.PNone {
			feeders[k] = true
			delete(needed, du)
			for _, s := range u.SrcRegs(srcBuf[:0]) {
				if s != d {
					needed[s] = true
				}
			}
		}
	}
	// Every intermediate reader of d must be a feeder, and a feeder's
	// result must not escape past the pair (or the pre-value it computed
	// from would leak).
	for k := i + 1; k < j; k++ {
		u := b.Instrs[k]
		readsD := false
		for _, s := range u.SrcRegs(srcBuf[:0]) {
			if s == d {
				readsD = true
			}
		}
		if readsD && !feeders[k] {
			return false
		}
		if feeders[k] && valueEscapes(lv, b, k, j) {
			return false
		}
	}
	return true
}

// valueEscapes reports whether the register defined at index k is read at
// or after index j (beyond the fused select) before being unconditionally
// redefined.  Conservative: live-out of the block counts as escaping.
func valueEscapes(lv *cfg.Liveness, b *ir.Block, k, j int) bool {
	d := b.Instrs[k].DefReg()
	var srcBuf [4]ir.Reg
	for m := j + 1; m < len(b.Instrs); m++ {
		u := b.Instrs[m]
		for _, s := range u.SrcRegs(srcBuf[:0]) {
			if s == d {
				return true
			}
		}
		switch u.Op {
		case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
			// A mid-block exit: the value escapes if live at the target.
			if lv.RegLiveIn(u.Target, d) {
				return true
			}
		}
		if u.DefReg() == d && u.Guard == ir.PNone && !u.ConditionalDef() {
			return false
		}
	}
	return lv.RegLiveOut(b.ID, d)
}

// regDefinedBetween reports whether reg is written by instructions in
// (i, j) exclusive.
func regDefinedBetween(b *ir.Block, i, j int, reg ir.Reg) bool {
	for k := i + 1; k < j; k++ {
		if b.Instrs[k].DefReg() == reg {
			return true
		}
	}
	return false
}

// normalizeComplements rewrites conditional moves whose condition is the
// boolean complement "xor t, 1" of another 0/1 value to the complementary
// move on the original value (cmov <-> cmov_com), exposing fusion and
// letting dead-code elimination drop the xor.
func normalizeComplements(f *ir.Func) {
	for _, b := range f.LiveBlocks(nil) {
		boolReg := map[ir.Reg]bool{}  // defined by a comparison (0/1)
		compOf := map[ir.Reg]ir.Reg{} // complement -> original
		rootOf := map[ir.Reg]ir.Reg{} // copy -> defining boolean register
		invalidate := func(d ir.Reg) {
			delete(boolReg, d)
			delete(compOf, d)
			delete(rootOf, d)
			for t, o := range compOf {
				if o == d {
					delete(compOf, t)
				}
			}
			for t, o := range rootOf {
				if o == d {
					delete(rootOf, t)
				}
			}
		}
		for _, in := range b.Instrs {
			if (in.Op == ir.CMov || in.Op == ir.CMovCom) && in.C.IsReg() {
				if orig, ok := compOf[in.C.R]; ok {
					if in.Op == ir.CMov {
						in.Op = ir.CMovCom
					} else {
						in.Op = ir.CMov
					}
					in.C = ir.R(orig)
				} else if root, ok := rootOf[in.C.R]; ok && root != in.C.R {
					in.C = ir.R(root) // canonicalize copies of a condition
				}
			}
			d := in.DefReg()
			if d == ir.RNone {
				continue
			}
			switch {
			case in.Op.IsCompare() && in.Guard == ir.PNone:
				invalidate(d)
				boolReg[d] = true
				rootOf[d] = d
			case in.Op == ir.Xor && in.Guard == ir.PNone &&
				in.A.IsReg() && boolReg[in.A.R] && in.B.IsImm && in.B.Imm == 1:
				orig := in.A.R
				if r, ok := rootOf[orig]; ok {
					orig = r
				}
				comp := compOf[orig]
				invalidate(d)
				boolReg[d] = true
				if comp != ir.RNone {
					// Complement of a complement: a copy of the original.
					rootOf[d] = comp
				} else {
					compOf[d] = orig
				}
			case in.Op == ir.Mov && in.Guard == ir.PNone && in.A.IsReg():
				// Copies inherit boolean-ness, complement identity, and the
				// canonical root.
				src := in.A.R
				isBool, comp, root := boolReg[src], compOf[src], rootOf[src]
				invalidate(d)
				if isBool {
					boolReg[d] = true
				}
				if comp != ir.RNone {
					compOf[d] = comp
				}
				if root != ir.RNone {
					rootOf[d] = root
				}
			default:
				invalidate(d)
			}
		}
	}
}
