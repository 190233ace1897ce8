package core

import (
	"fmt"
	"slices"
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/progen"
)

// denseLiveness is the reference the compact cfg.Liveness is held to: the
// textbook iterative fixpoint with one bit per register and predicate of
// the function, walking every instruction of every block on every pass.
type denseLiveness struct {
	regIn, regOut, predIn, predOut []cfg.BitSet
}

func newDenseLiveness(f *ir.Func) *denseLiveness {
	g := cfg.NewGraph(f)
	n := len(f.Blocks)
	lv := &denseLiveness{
		regIn: make([]cfg.BitSet, n), regOut: make([]cfg.BitSet, n),
		predIn: make([]cfg.BitSet, n), predOut: make([]cfg.BitSet, n)}
	for _, b := range f.LiveBlocks(nil) {
		lv.regIn[b.ID], lv.regOut[b.ID] = cfg.NewBitSet(int(f.NextReg)), cfg.NewBitSet(int(f.NextReg))
		lv.predIn[b.ID], lv.predOut[b.ID] = cfg.NewBitSet(int(f.NextPReg)), cfg.NewBitSet(int(f.NextPReg))
	}
	rpo := g.RPO()
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			id := rpo[i]
			b := f.Blocks[id]
			if b.Dead {
				continue
			}
			for _, s := range g.Succs[id] {
				if lv.regIn[s] != nil {
					changed = lv.regOut[id].OrWith(lv.regIn[s]) || changed
					changed = lv.predOut[id].OrWith(lv.predIn[s]) || changed
				}
			}
			regs, preds := slices.Clone(lv.regOut[id]), slices.Clone(lv.predOut[id])
			lv.step(b.Instrs, regs, preds)
			changed = lv.regIn[id].OrWith(regs) || changed
			changed = lv.predIn[id].OrWith(preds) || changed
		}
	}
	return lv
}

// step is the backward transfer over a block: exit branches merge their
// target's live-ins, unguarded unconditional writes kill, and reads (OR/
// AND-type predicate destinations included) make live.
func (lv *denseLiveness) step(instrs []*ir.Instr, regs, preds cfg.BitSet) {
	var srcBuf [4]ir.Reg
	for i := len(instrs) - 1; i >= 0; i-- {
		in := instrs[i]
		switch in.Op {
		case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
			if in.Target >= 0 && in.Target < len(lv.regIn) && lv.regIn[in.Target] != nil {
				regs.OrWith(lv.regIn[in.Target])
				preds.OrWith(lv.predIn[in.Target])
			}
		}
		if d := in.DefReg(); d != ir.RNone && in.Guard == ir.PNone && !in.ConditionalDef() {
			regs.Clear(int32(d))
		}
		if in.Op == ir.PredDef {
			for _, pd := range []ir.PredDest{in.P1, in.P2} {
				if in.Guard == ir.PNone && (pd.Type == ir.PredU || pd.Type == ir.PredUBar) {
					preds.Clear(int32(pd.P))
				}
			}
			for _, pd := range []ir.PredDest{in.P1, in.P2} {
				if pd.Type != ir.PredNone && pd.Type != ir.PredU && pd.Type != ir.PredUBar {
					preds.Set(int32(pd.P))
				}
			}
		}
		if (in.Op == ir.PredClear || in.Op == ir.PredSet) && in.Guard == ir.PNone {
			clear(preds)
		}
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			regs.Set(int32(s))
		}
		if in.Guard != ir.PNone {
			preds.Set(int32(in.Guard))
		}
	}
}

// livenessDiff compares cfg.ComputeLiveness with the dense reference on
// every block of f, in both directions for every register and predicate.
// Registers are checked through Regs: the reference's members must all be
// answered live, and the compact side can hold no register outside Regs,
// so equal counts make the sets equal.
func livenessDiff(f *ir.Func) string {
	lv := cfg.ComputeLiveness(cfg.NewGraph(f))
	ref := newDenseLiveness(f)
	for id, b := range f.Blocks {
		if tracked := ref.regIn[id] != nil; lv.Tracks(id) != tracked {
			return fmt.Sprintf("B%d tracked %v, want %v", id, lv.Tracks(id), tracked)
		}
		if b.Dead {
			continue
		}
		for _, dir := range []struct {
			name     string
			regs     cfg.BitSet
			preds    cfg.BitSet
			regLive  func(int, ir.Reg) bool
			predLive func(int, ir.PReg) bool
		}{
			{"in", ref.regIn[id], ref.predIn[id], lv.RegLiveIn, lv.PredLiveIn},
			{"out", ref.regOut[id], ref.predOut[id], lv.RegLiveOut, lv.PredLiveOut},
		} {
			want, got := 0, 0
			for r := ir.Reg(0); r < f.NextReg; r++ {
				if dir.regs.Has(int32(r)) {
					want++
					if !dir.regLive(id, r) {
						return fmt.Sprintf("B%d: r%d missing from live-%s", id, r, dir.name)
					}
				}
			}
			for _, r := range lv.Regs() {
				if dir.regLive(id, r) {
					got++
				}
			}
			if got != want {
				return fmt.Sprintf("B%d: %d registers live-%s, want %d", id, got, dir.name, want)
			}
			for p := ir.PReg(0); p < f.NextPReg; p++ {
				if w := dir.preds.Has(int32(p)); dir.predLive(id, p) != w {
					return fmt.Sprintf("B%d: p%d live-%s %v, want %v", id, p, dir.name, !w, w)
				}
			}
		}
	}
	return ""
}

// TestLivenessMatchesDenseReference: at every stage of every pipeline, over
// all fifteen kernels and 200 progen programs, the compact liveness answers
// every block's live-in and live-out query exactly as the dense fixpoint.
func TestLivenessMatchesDenseReference(t *testing.T) {
	type prog struct {
		name  string
		build func() *ir.Program
	}
	var progs []prog
	for _, k := range bench.All() {
		progs = append(progs, prog{k.Name, k.Build})
	}
	for seed := uint64(1); seed <= 100; seed++ {
		progs = append(progs,
			prog{fmt.Sprintf("progen-%d", seed), func() *ir.Program { return progen.Generate(seed, progen.Default()) }},
			prog{fmt.Sprintf("progen-nested-%d", seed), func() *ir.Program { return progen.GenerateNested(seed, progen.Default()) }})
	}
	models := []Model{Superblock, CondMove, FullPred, GuardInstr}
	stages := 0
	for _, pr := range progs {
		for _, m := range models {
			opts := DefaultOptions(machine.Issue8Br1())
			var failure string
			opts.StageHook = func(stage string, p *ir.Program) {
				stages++
				for _, f := range p.Funcs {
					if d := livenessDiff(f); d != "" && failure == "" {
						failure = fmt.Sprintf("after %s, %s: %s", stage, f.Name, d)
					}
				}
			}
			if _, err := Compile(pr.build(), m, opts); err != nil {
				t.Fatalf("%s %v: %v", pr.name, m, err)
			}
			if failure != "" {
				t.Fatalf("%s %v: %s", pr.name, m, failure)
			}
		}
	}
	t.Logf("%d stages checked", stages)
}
