package hyperblock

import (
	"predication/internal/cfg"
	"predication/internal/ir"
)

// CombineBranches applies the branch-combining transformation described in
// §4.2: unlikely-taken exit branches of a hyperblock are replaced by
// OR-type predicate defines accumulating into a single exit predicate; one
// predicated jump to a dispatch block replaces them all.  The dispatch
// block re-tests the original conditions in order to transfer control to
// the correct exit target.
//
// The transformation reduces the number of dynamic branches (grep: 663K to
// 171K in Table 3) at the cost of a combined branch that mispredicts more
// often than the sum of the original branches — the anomaly the paper
// reports for grep.
//
// Safety: instructions between the first and last combined branch execute
// even when an earlier combined exit condition holds, so they must be
// side-effect free with respect to the exit paths: no stores, no other
// branches, no non-silent excepting operations, and no definition of a
// register that is live into a combined target or used by a dispatch test.
func CombineBranches(f *ir.Func, heads []int, prof *cfg.Profile, params Params) int {
	if !params.CombineBranches {
		return 0
	}
	combined := 0
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)
	for _, hid := range heads {
		// A block may hold several combinable groups separated by span
		// hazards (e.g. the induction update between unrolled iterations):
		// keep combining until no group qualifies.  Already-combined exits
		// have become predicate defines and are not re-candidates.
		for combineInBlock(f, lv, f.Blocks[hid], prof, params) {
			combined++
		}
	}
	return combined
}

// exitCand is an exit branch eligible for combining.
type exitCand struct {
	idx int
	in  *ir.Instr
}

// combineInBlock uses function-level liveness computed by the caller; the
// transformation only adds blocks and predicates, so the liveness of
// pre-existing branch targets stays valid across successive combines.
func combineInBlock(f *ir.Func, lv *cfg.Liveness, h *ir.Block, prof *cfg.Profile, params Params) bool {
	// Collect candidate exit branches: conditional branches whose taken
	// probability is below the threshold.
	var cands []exitCand
	for i, in := range h.Instrs {
		if !in.Op.IsCondBranch() {
			continue
		}
		prob, n := prof.TakenProb(in)
		if n == 0 && prof.Weight(h) > 0 {
			prob = 0 // never observed taken
		}
		if prob <= params.CombineProb {
			cands = append(cands, exitCand{i, in})
		}
	}
	if len(cands) < params.MinCombine {
		return false
	}

	// Take the longest SUFFIX-trimmed prefix passing the span safety
	// check; if the prefix starting at the first candidate cannot grow to
	// the minimum group size, retry from later candidates so independent
	// groups (e.g. per unrolled iteration) each get their turn on the
	// next CombineBranches pass.
	var silence []*ir.Instr
	for start := 0; start+params.MinCombine <= len(cands); start++ {
		group := cands[start:]
		for len(group) >= params.MinCombine {
			var ok bool
			silence, ok = spanSafe(lv, h, group[0].idx, group[len(group)-1].idx, group)
			if ok {
				cands = group
				goto found
			}
			group = group[:len(group)-1]
		}
	}
	return false
found:
	// Span instructions that may fault become speculative (silent): they
	// now execute even when an earlier combined exit condition holds.
	for _, in := range silence {
		in.Silent = true
	}

	// Build the dispatch block: re-test each condition (still guarded by
	// the branch's original predicate) in original order.
	dispatch := f.NewBlock()
	dispatch.Name = "dispatch"
	for _, c := range cands {
		cmp, _ := ir.BranchCmp(c.in.Op)
		dispatch.Append(&ir.Instr{Op: c.in.Op, A: c.in.A, B: c.in.B,
			Target: c.in.Target, Guard: c.in.Guard})
		_ = cmp
	}
	// Unreachable if the transformation is correct: one condition must
	// hold whenever the exit predicate is set.
	dispatch.Append(&ir.Instr{Op: ir.Halt})

	// Replace each candidate branch in place with an OR-type define into
	// the fresh exit predicate.
	pExit := f.NewPReg()
	for _, c := range cands {
		cmp, _ := ir.BranchCmp(c.in.Op)
		in := c.in
		in.Op = ir.PredDef
		in.Cmp = cmp
		in.P1 = ir.PredDest{P: pExit, Type: ir.PredOR}
		in.P2 = ir.PredDest{}
		in.Target = 0
	}

	// Insert the combined exit jump after the last replaced branch, and
	// ensure the exit predicate starts cleared.
	h.InsertAt(cands[len(cands)-1].idx+1,
		&ir.Instr{Op: ir.Jump, Target: dispatch.ID, Guard: pExit})
	if len(h.Instrs) == 0 || h.Instrs[0].Op != ir.PredClear {
		h.InsertAt(0, &ir.Instr{Op: ir.PredClear})
	}
	return true
}

// spanSafe verifies the instructions strictly between the first and last
// candidate positions (excluding the candidates themselves).  It returns
// the potentially excepting span instructions that must be made silent for
// the transformation to be safe.
func spanSafe(lv *cfg.Liveness, h *ir.Block, first, last int, cands []exitCand) ([]*ir.Instr, bool) {
	isCand := map[int]bool{}
	for _, c := range cands {
		isCand[c.idx] = true
	}
	var silence []*ir.Instr
	for j := first; j <= last; j++ {
		if isCand[j] {
			continue
		}
		x := h.Instrs[j]
		if x.Op.IsBranch() || x.Op == ir.Store {
			return nil, false
		}
		if x.Op.CanExcept() && !x.Silent {
			silence = append(silence, x)
		}
		if d := x.DefReg(); d != ir.RNone {
			// A span instruction runs "extra" only with respect to the
			// combined exits that precede it: it may neither redefine a
			// register an earlier candidate's dispatch test reads, nor a
			// register live into an earlier candidate's target.
			for _, c := range cands {
				if c.idx >= j {
					break
				}
				if (c.in.A.IsReg() && c.in.A.R == d) || (c.in.B.IsReg() && c.in.B.R == d) {
					return nil, false
				}
				if lv.RegLiveIn(c.in.Target, d) {
					return nil, false
				}
			}
		}
	}
	return silence, true
}
