package irverify

import "predication/internal/ir"

// The dense def-before-use analysis the verifier ran before it was made
// sparse, kept as the oracle the sparse one is held to
// (TestSparseDefBeforeUse).

// DefUseDiags runs only the def-before-use analysis over every function
// of p, the sparse one or the dense reference, with no diagnostic cap.
func DefUseDiags(p *ir.Program, dense bool) []Diagnostic {
	v := &verifier{p: p, max: 1 << 30}
	for fi, f := range p.Funcs {
		if dense {
			v.denseDefBeforeUse(f, v.reporterFor(fi, f))
		} else {
			v.defBeforeUse(f, v.reporterFor(fi, f))
		}
	}
	return v.diags
}

// regSet is a bitset over one function's virtual registers.
type regSet []uint64

func newRegSet(n int) regSet { return make(regSet, (n+63)/64) }

func (s regSet) has(r int) bool { return s[r/64]&(1<<uint(r%64)) != 0 }
func (s regSet) set(r int)      { s[r/64] |= 1 << uint(r%64) }
func (s regSet) setAll() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// union folds o into s, reporting whether s changed.
func (s regSet) union(o regSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s regSet) clone() regSet { return append(regSet(nil), s...) }

// denseDefBeforeUse is the reference for verifier.defBeforeUse: the same
// forward may-reach analysis with dense sets over every register and
// predicate of the function, one set per block in maps, cloned per
// block on every iteration.
func (v *verifier) denseDefBeforeUse(f *ir.Func, at reporter) {
	nReg, nPreg := int(f.NextReg), int(f.NextPReg)
	if nReg <= 0 || nPreg <= 0 {
		return
	}
	blocks := f.LiveBlocks(nil)
	if len(blocks) == 0 {
		return
	}

	// Predecessor lists over live blocks.
	preds := map[int][]int{}
	for _, b := range blocks {
		for _, s := range b.Succs(nil) {
			if s >= 0 && s < len(f.Blocks) && f.Blocks[s] != nil && !f.Blocks[s].Dead {
				preds[s] = append(preds[s], b.ID)
			}
		}
	}

	// transfer applies one block's definitions to the running sets.
	transfer := func(b *ir.Block, regs, pregs regSet) {
		for _, in := range b.Instrs {
			if in == nil {
				continue
			}
			switch in.Op {
			case ir.PredClear, ir.PredSet:
				pregs.setAll()
			case ir.PredDef:
				for _, pd := range []ir.PredDest{in.P1, in.P2} {
					if pd.Type != ir.PredNone && pd.P != ir.PNone && int(pd.P) < nPreg {
						pregs.set(int(pd.P))
					}
				}
			}
			if d := in.DefReg(); d != ir.RNone && int(d) < nReg {
				regs.set(int(d))
			}
		}
	}

	// Iterate to fixpoint: in[b] = union of out[pred]; entry starts empty.
	type state struct{ regs, pregs regSet }
	in := map[int]*state{}
	out := map[int]*state{}
	for _, b := range blocks {
		in[b.ID] = &state{newRegSet(nReg), newRegSet(nPreg)}
		out[b.ID] = &state{newRegSet(nReg), newRegSet(nPreg)}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			s := in[b.ID]
			for _, p := range preds[b.ID] {
				if s.regs.union(out[p].regs) {
					changed = true
				}
				if s.pregs.union(out[p].pregs) {
					changed = true
				}
			}
			regs, pregs := s.regs.clone(), s.pregs.clone()
			transfer(b, regs, pregs)
			if out[b.ID].regs.union(regs) {
				changed = true
			}
			if out[b.ID].pregs.union(pregs) {
				changed = true
			}
		}
	}

	// Report pass: walk each block with the running sets, checking reads
	// before applying the instruction's definitions.
	var srcBuf [4]ir.Reg
	for _, b := range blocks {
		regs := in[b.ID].regs.clone()
		pregs := in[b.ID].pregs.clone()
		for i, in := range b.Instrs {
			if in == nil {
				continue
			}
			if in.Guard != ir.PNone && int(in.Guard) < nPreg && !pregs.has(int(in.Guard)) {
				at(b, i, UseBeforeDef, "guard %s has no reaching definition", in.Guard)
			}
			var uses []ir.Reg
			if in.ConditionalDef() {
				// cmov/cmov_com: check A and C but not the conditional
				// self-read of the destination.
				if in.A.IsReg() {
					uses = append(uses, in.A.R)
				}
				if in.C.IsReg() {
					uses = append(uses, in.C.R)
				}
			} else {
				uses = in.SrcRegs(srcBuf[:0])
			}
			for _, r := range uses {
				if int(r) < nReg && !regs.has(int(r)) {
					at(b, i, UseBeforeDef, "source %s has no reaching definition", r)
				}
			}
			switch in.Op {
			case ir.PredClear, ir.PredSet:
				pregs.setAll()
			case ir.PredDef:
				for _, pd := range []ir.PredDest{in.P1, in.P2} {
					if pd.Type != ir.PredNone && pd.P != ir.PNone && int(pd.P) < nPreg {
						pregs.set(int(pd.P))
					}
				}
			}
			if d := in.DefReg(); d != ir.RNone && int(d) < nReg {
				regs.set(int(d))
			}
		}
	}
}
