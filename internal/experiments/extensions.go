package experiments

import (
	"fmt"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/regalloc"
	"predication/internal/sim"
)

// This file implements experiments beyond the paper's tables, each
// following up a remark in the paper's text:
//
//   - PenaltySweep: "for machines with larger branch prediction miss
//     penalties, we expect the benefits of both full and partial
//     prediction to be much more pronounced" (§5);
//   - PredDistanceSweep: "this dependence distance may also be larger for
//     deeper pipelines or if bypass is not available for predicate
//     registers" (§2.1);
//   - RegisterPressure / FiniteRegisterSweep: partial predication
//     "requires a larger number of registers to hold intermediate values"
//     (§1) — quantified, and then priced by allocating to finite files.

// measureKernel compiles, emulates and simulates one kernel once.
func measureKernel(name string, model core.Model, mc machine.Config, mutate func(*core.Options)) (sim.Stats, *core.Compiled, error) {
	k, err := bench.ByName(name)
	if err != nil {
		return sim.Stats{}, nil, err
	}
	opts := core.DefaultOptions(mc)
	if mutate != nil {
		mutate(&opts)
	}
	c, err := core.Compile(k.Build(), model, opts)
	if err != nil {
		return sim.Stats{}, nil, err
	}
	s := sim.NewTiming(c.Prog, mc)
	if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
		return sim.Stats{}, nil, err
	}
	return s.Stats(), c, nil
}

// defaultExtensionKernels is the control-intensive subset used by the
// extension experiments (running all fifteen would mostly add the
// FP-dominated kernels, which predication barely touches).
var defaultExtensionKernels = []string{
	"wc", "grep", "cmp", "023.eqntott", "008.espresso", "lex", "qsort",
}

// PenaltySweep reports mean speedups (vs the 1-issue baseline at 2-cycle
// penalty) for each model as the misprediction penalty grows.
func PenaltySweep(kernels []string, penalties []int) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: misprediction-penalty sweep, 8-issue 1-branch (mean speedup vs 2-cycle 1-issue baseline)",
		Headers: []string{"Penalty", "Superblock", "Cond. Move", "Full Pred."},
	}
	base := map[string]int64{}
	for _, name := range kernels {
		st, _, err := measureKernel(name, core.Superblock, machine.Issue1(), nil)
		if err != nil {
			return nil, err
		}
		base[name] = st.Cycles
	}
	for _, pen := range penalties {
		mc := machine.Issue8Br1()
		mc.MispredictPenalty = pen
		row := []string{fmt.Sprintf("%d", pen)}
		for _, model := range Models {
			sum := 0.0
			for _, name := range kernels {
				st, _, err := measureKernel(name, model, mc, nil)
				if err != nil {
					return nil, err
				}
				sum += float64(base[name]) / float64(st.Cycles)
			}
			row = append(row, fmt.Sprintf("%.2f", sum/float64(len(kernels))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PredDistanceSweep reports full-predication mean speedups as the
// predicate define-to-use distance grows (deeper pipelines / no predicate
// bypass), with writeback-stage suppression as the 0-cycle bound.
func PredDistanceSweep(kernels []string) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: predicate define-to-use distance (full predication, 8-issue 1-branch)",
		Headers: []string{"Distance", "Mean speedup"},
	}
	base := map[string]int64{}
	for _, name := range kernels {
		st, _, err := measureKernel(name, core.Superblock, machine.Issue1(), nil)
		if err != nil {
			return nil, err
		}
		base[name] = st.Cycles
	}
	type variant struct {
		label string
		conf  func() machine.Config
	}
	variants := []variant{
		{"0 (writeback suppression)", func() machine.Config {
			mc := machine.Issue8Br1()
			mc.WritebackSuppression = true
			return mc
		}},
		{"1 (decode suppression, paper)", machine.Issue8Br1},
		{"2 (deep pipeline)", func() machine.Config {
			mc := machine.Issue8Br1()
			mc.PredicateDistance = 2
			return mc
		}},
		{"3", func() machine.Config {
			mc := machine.Issue8Br1()
			mc.PredicateDistance = 3
			return mc
		}},
	}
	for _, v := range variants {
		mc := v.conf()
		sum := 0.0
		for _, name := range kernels {
			st, _, err := measureKernel(name, core.FullPred, mc, func(o *core.Options) { o.Machine = mc })
			if err != nil {
				return nil, err
			}
			sum += float64(base[name]) / float64(st.Cycles)
		}
		t.Rows = append(t.Rows, []string{v.label, fmt.Sprintf("%.2f", sum/float64(len(kernels)))})
	}
	return t, nil
}

// RegisterPressure tabulates per-benchmark maximum live register counts
// for the three models, plus the predicate register demand of the full
// predication model.
func RegisterPressure(kernels []string) (*Table, error) {
	if kernels == nil {
		for _, k := range bench.All() {
			kernels = append(kernels, k.Name)
		}
	}
	t := &Table{
		Title:   "Extension: register pressure (max simultaneously live, 8-issue 1-branch code)",
		Headers: []string{"Benchmark", "Superblk", "Cond. Move", "Full Pred.", "FP preds"},
	}
	mc := machine.Issue8Br1()
	for _, name := range kernels {
		row := []string{name}
		var fpPreds int
		for _, model := range Models {
			_, c, err := measureKernel(name, model, mc, nil)
			if err != nil {
				return nil, err
			}
			pr := regalloc.AnalyzeProgram(c.Prog)
			row = append(row, fmt.Sprintf("%d", pr.MaxLive))
			if model == core.FullPred {
				fpPreds = pr.MaxLivePreds
			}
		}
		row = append(row, fmt.Sprintf("%d", fpPreds))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FiniteRegisterSweep allocates each model's code to finite register files
// and reports mean cycles relative to the infinite-register code — the
// cost of the conditional-move model's extra temporaries when registers
// are no longer free.
func FiniteRegisterSweep(kernels []string, files []int) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: finite register files (mean cycle overhead vs infinite registers, 8-issue 1-branch)",
		Headers: []string{"Registers", "Superblock", "Cond. Move", "Full Pred."},
	}
	mc := machine.Issue8Br1()
	// Infinite-register baselines.
	baseline := map[core.Model]map[string]int64{}
	for _, model := range Models {
		baseline[model] = map[string]int64{}
		for _, name := range kernels {
			st, _, err := measureKernel(name, model, mc, nil)
			if err != nil {
				return nil, err
			}
			baseline[model][name] = st.Cycles
		}
	}
	for _, nregs := range files {
		row := []string{fmt.Sprintf("%d", nregs)}
		for _, model := range Models {
			sum := 0.0
			for _, name := range kernels {
				k, _ := bench.ByName(name)
				c, err := core.Compile(k.Build(), model, core.DefaultOptions(mc))
				if err != nil {
					return nil, err
				}
				res, err := regalloc.Allocate(c.Prog, nregs)
				if err != nil {
					return nil, err
				}
				regalloc.GrowMemory(c.Prog, res)
				c.Prog.AssignAddresses()
				run, err := emu.Run(c.Prog, emu.Options{Trace: true})
				if err != nil {
					return nil, fmt.Errorf("%s %v K=%d: %w", name, model, nregs, err)
				}
				st := sim.Simulate(c.Prog, run.Trace, mc)
				sum += float64(st.Cycles) / float64(baseline[model][name])
			}
			row = append(row, fmt.Sprintf("%.3f", sum/float64(len(kernels))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Extensions runs all extension experiments with default parameters.
func Extensions() ([]*Table, error) {
	var tables []*Table
	t1, err := PenaltySweep(nil, []int{2, 4, 8, 16})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t1)
	t2, err := PredDistanceSweep(nil)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t2)
	t3, err := RegisterPressure(nil)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t3)
	t4, err := FiniteRegisterSweep(nil, []int{16, 24, 32, 48})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t4)
	t5, err := SpectrumTable(nil)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t5)
	t6, err := PredictorTable(nil)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t6)
	t7, err := UnrollSweep(nil, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t7)
	return tables, nil
}

// SpectrumTable explores "the range of predication support between
// conditional move and full predication" (§5's closing suggestion): mean
// speedups for five support levels, from none through conditional move,
// conditional move + select, guard instructions, to full predication.
func SpectrumTable(kernels []string) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: the predication-support spectrum (mean speedup, 8-issue 1-branch)",
		Headers: []string{"Support level", "Mean speedup", "Mean instr ratio"},
	}
	base := map[string]int64{}
	baseInstr := map[string]int64{}
	for _, name := range kernels {
		st, _, err := measureKernel(name, core.Superblock, machine.Issue1(), nil)
		if err != nil {
			return nil, err
		}
		base[name] = st.Cycles
		st8, _, err := measureKernel(name, core.Superblock, machine.Issue8Br1(), nil)
		if err != nil {
			return nil, err
		}
		baseInstr[name] = st8.Instrs
	}
	type level struct {
		label  string
		model  core.Model
		mutate func(*core.Options)
	}
	levels := []level{
		{"none (superblock)", core.Superblock, nil},
		{"conditional move", core.CondMove, nil},
		{"conditional move + select", core.CondMove, func(o *core.Options) { o.Partial.UseSelect = true }},
		{"guard instructions", core.GuardInstr, nil},
		{"full predication", core.FullPred, nil},
	}
	mc := machine.Issue8Br1()
	for _, l := range levels {
		sumSp, sumIr := 0.0, 0.0
		for _, name := range kernels {
			st, _, err := measureKernel(name, l.model, mc, l.mutate)
			if err != nil {
				return nil, err
			}
			sumSp += float64(base[name]) / float64(st.Cycles)
			sumIr += float64(st.Instrs) / float64(baseInstr[name])
		}
		n := float64(len(kernels))
		t.Rows = append(t.Rows, []string{l.label,
			fmt.Sprintf("%.2f", sumSp/n), fmt.Sprintf("%.2f", sumIr/n)})
	}
	return t, nil
}

// PredictorTable compares the paper's BTB against a gshare predictor: a
// stronger front end shrinks the superblock baseline's misprediction bill
// and with it part of predication's margin — the counterpart of §5's
// remark that the 2-cycle penalty makes the reported gains conservative.
func PredictorTable(kernels []string) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: branch-predictor sensitivity (mean speedup / mean mispredictions, 8-issue 1-branch)",
		Headers: []string{"Predictor", "Superblock", "Cond. Move", "Full Pred.", "SB mispredicts"},
	}
	for _, gshare := range []bool{false, true} {
		mc := machine.Issue8Br1()
		mc.Gshare = gshare
		base := map[string]int64{}
		for _, name := range kernels {
			bmc := machine.Issue1()
			bmc.Gshare = gshare
			st, _, err := measureKernel(name, core.Superblock, bmc, nil)
			if err != nil {
				return nil, err
			}
			base[name] = st.Cycles
		}
		label := "BTB 2-bit (paper)"
		if gshare {
			label = "gshare"
		}
		row := []string{label}
		var sbMP int64
		for _, model := range Models {
			sum := 0.0
			for _, name := range kernels {
				st, _, err := measureKernel(name, model, mc, nil)
				if err != nil {
					return nil, err
				}
				sum += float64(base[name]) / float64(st.Cycles)
				if model == core.Superblock {
					sbMP += st.Mispredicts
				}
			}
			row = append(row, fmt.Sprintf("%.2f", sum/float64(len(kernels))))
		}
		row = append(row, fmt.Sprintf("%d", sbMP))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// UnrollSweep measures the effect of pre-formation loop unrolling — §5's
// "more advanced compiler optimization techniques" — on each model's mean
// speedup and on the dynamic branch count.
func UnrollSweep(kernels []string, factors []int) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: loop unrolling before formation (mean speedup / branches vs factor 1, 8-issue 1-branch)",
		Headers: []string{"Factor", "Superblock", "Cond. Move", "Full Pred.", "FP branch ratio"},
	}
	base := map[string]int64{}
	for _, name := range kernels {
		st, _, err := measureKernel(name, core.Superblock, machine.Issue1(), nil)
		if err != nil {
			return nil, err
		}
		base[name] = st.Cycles
	}
	var fpBranchBase int64
	for _, factor := range factors {
		mc := machine.Issue8Br1()
		mut := func(o *core.Options) { o.Unroll.Factor = factor }
		row := []string{fmt.Sprintf("%d", factor)}
		var fpBranches int64
		for _, model := range Models {
			sum := 0.0
			for _, name := range kernels {
				st, _, err := measureKernel(name, model, mc, mut)
				if err != nil {
					return nil, err
				}
				sum += float64(base[name]) / float64(st.Cycles)
				if model == core.FullPred {
					fpBranches += st.Branches
				}
			}
			row = append(row, fmt.Sprintf("%.2f", sum/float64(len(kernels))))
		}
		if factor == factors[0] {
			fpBranchBase = fpBranches
		}
		row = append(row, fmt.Sprintf("%.2f", float64(fpBranches)/float64(fpBranchBase)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
