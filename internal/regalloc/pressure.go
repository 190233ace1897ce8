// Package regalloc provides register pressure analysis and a linear-scan
// register allocator for the predication IR.
//
// The paper assumes an infinite register file (§4.1) but argues
// qualitatively that partial predication "requires a larger number of
// registers to hold intermediate values" than full predication (§1):
// every converted predicated instruction computes into a renamed
// temporary before a conditional move commits it.  This package makes the
// claim measurable (MaxLive/Pressure) and provides the substrate a real
// port would need: allocation of virtual registers onto a finite machine
// register file with spilling.
package regalloc

import (
	"predication/internal/cfg"
	"predication/internal/ir"
)

// Pressure reports register demand for one function.
type Pressure struct {
	// MaxLive is the largest number of integer/FP virtual registers
	// simultaneously live at any instruction boundary.
	MaxLive int
	// MaxLivePreds is the same for predicate registers.
	MaxLivePreds int
	// Virtual counts allocated virtual registers (a static measure of
	// renaming demand).
	Virtual int
}

// Analyze computes register pressure for a function.
func Analyze(f *ir.Func) Pressure {
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)
	live := lv.Walker()
	pr := Pressure{Virtual: int(f.NextReg) - 1}
	for _, b := range f.LiveBlocks(nil) {
		if !g.Reachable(b.ID) {
			continue
		}
		// Walk backwards from live-out, sampling after every instruction.
		live.Start(b.ID)
		sample := func() {
			pr.MaxLive = max(pr.MaxLive, live.NumRegs())
			pr.MaxLivePreds = max(pr.MaxLivePreds, live.NumPreds())
		}
		sample()
		var srcBuf [4]ir.Reg
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			switch in.Op {
			case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
				if in.Target >= 0 {
					live.Exit(in.Target)
				}
			}
			if d := in.DefReg(); d != ir.RNone && in.Guard == ir.PNone && !in.ConditionalDef() {
				live.KillReg(d)
			}
			if in.Op == ir.PredDef && in.Guard == ir.PNone {
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if pd.Type == ir.PredU || pd.Type == ir.PredUBar {
						live.KillPred(pd.P)
					}
				}
			}
			for _, s := range in.SrcRegs(srcBuf[:0]) {
				live.SetReg(s)
			}
			if in.Guard != ir.PNone {
				live.SetPred(in.Guard)
			}
			if in.Op == ir.PredDef {
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if pd.Type != ir.PredNone && pd.Type != ir.PredU && pd.Type != ir.PredUBar {
						live.SetPred(pd.P)
					}
				}
			}
			sample()
		}
	}
	return pr
}

// AnalyzeProgram returns the maximum pressure over all functions.
func AnalyzeProgram(p *ir.Program) Pressure {
	var pr Pressure
	for _, f := range p.Funcs {
		fp := Analyze(f)
		if fp.MaxLive > pr.MaxLive {
			pr.MaxLive = fp.MaxLive
		}
		if fp.MaxLivePreds > pr.MaxLivePreds {
			pr.MaxLivePreds = fp.MaxLivePreds
		}
		pr.Virtual += fp.Virtual
	}
	return pr
}
