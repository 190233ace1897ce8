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

// defaultExtensionKernels is the control-intensive subset used by the
// extension experiments (running all fifteen would mostly add the
// FP-dominated kernels, which predication barely touches).
var defaultExtensionKernels = []string{
	"wc", "grep", "cmp", "023.eqntott", "008.espresso", "lex", "qsort",
}

// formKernel forms the named kernel for each model family the given
// models need, deriving the conditional-move form from the fully
// predicated one as Run does.  Formation reads no machine; mutate, when
// non-nil, changes the formation options (the unrolling factor).
func formKernel(name string, models []core.Model, mutate func(*core.Options)) (map[core.Model]*core.Formed, error) {
	k, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	src := k.Build()
	fopts := core.DefaultOptions(machine.Config{})
	if mutate != nil {
		mutate(&fopts)
	}
	forms := map[core.Model]*core.Formed{}
	for _, m := range models {
		base := forms[m.Family()]
		if base == nil {
			if base, err = core.Form(src, m.Family(), fopts); err != nil {
				return nil, fmt.Errorf("%s %v: %w", name, m.Family(), err)
			}
			forms[m.Family()] = base
		}
		if forms[m], err = base.Derive(m, fopts); err != nil {
			return nil, fmt.Errorf("%s %v: %w", name, m, err)
		}
	}
	return forms, nil
}

// measureFormed schedules a formed program for target and measures the
// listing on every configuration of cfgs in one emulation, a gang lane
// each.
func measureFormed(name string, f *core.Formed, target machine.Config, cfgs []machine.Config) ([]*Measurement, error) {
	art, err := ScheduleCell(name, f, target, core.DefaultOptions(target))
	if err != nil {
		return nil, err
	}
	return art.MeasureAll(cfgs, false)
}

// PenaltySweep reports mean speedups (vs the 1-issue baseline at 2-cycle
// penalty) for each model as the misprediction penalty grows.  The
// scheduler never reads the penalty, so each kernel is formed once per
// model family and scheduled once per model, and one emulation measures
// every penalty, a gang lane each.
func PenaltySweep(kernels []string, penalties []int) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: misprediction-penalty sweep, 8-issue 1-branch (mean speedup vs 2-cycle 1-issue baseline)",
		Headers: []string{"Penalty", "Superblock", "Cond. Move", "Full Pred."},
	}
	mcs := make([]machine.Config, len(penalties))
	for i, pen := range penalties {
		mcs[i] = machine.Issue8Br1()
		mcs[i].MispredictPenalty = pen
	}
	sums := make([][]float64, len(penalties)) // [penalty][model]
	for i := range sums {
		sums[i] = make([]float64, len(Models))
	}
	for _, name := range kernels {
		forms, err := formKernel(name, Models, nil)
		if err != nil {
			return nil, err
		}
		base, err := measureFormed(name, forms[core.Superblock], machine.Issue1(), []machine.Config{machine.Issue1()})
		if err != nil {
			return nil, err
		}
		for mi, model := range Models {
			ms, err := measureFormed(name, forms[model], machine.Issue8Br1(), mcs)
			if err != nil {
				return nil, err
			}
			for pi, m := range ms {
				sums[pi][mi] += float64(base[0].Stats.Cycles) / float64(m.Stats.Cycles)
			}
		}
	}
	for pi, pen := range penalties {
		row := []string{fmt.Sprintf("%d", pen)}
		for mi := range Models {
			row = append(row, fmt.Sprintf("%.2f", sums[pi][mi]/float64(len(kernels))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PredDistanceSweep reports full-predication mean speedups as the
// predicate define-to-use distance grows (deeper pipelines / no predicate
// bypass), with writeback-stage suppression as the 0-cycle bound.  The
// distance is a scheduling parameter, so each kernel is formed once and
// scheduled once per distance.
func PredDistanceSweep(kernels []string) (*Table, error) {
	if kernels == nil {
		kernels = defaultExtensionKernels
	}
	t := &Table{
		Title:   "Extension: predicate define-to-use distance (full predication, 8-issue 1-branch)",
		Headers: []string{"Distance", "Mean speedup"},
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
	sums := make([]float64, len(variants))
	for _, name := range kernels {
		forms, err := formKernel(name, []core.Model{core.Superblock, core.FullPred}, nil)
		if err != nil {
			return nil, err
		}
		base, err := measureFormed(name, forms[core.Superblock], machine.Issue1(), []machine.Config{machine.Issue1()})
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			mc := v.conf()
			ms, err := measureFormed(name, forms[core.FullPred], mc, []machine.Config{mc})
			if err != nil {
				return nil, err
			}
			sums[vi] += float64(base[0].Stats.Cycles) / float64(ms[0].Stats.Cycles)
		}
	}
	for vi, v := range variants {
		t.Rows = append(t.Rows, []string{v.label, fmt.Sprintf("%.2f", sums[vi]/float64(len(kernels)))})
	}
	return t, nil
}

// RegisterPressure tabulates per-benchmark maximum live register counts
// for the three models, plus the predicate register demand of the full
// predication model.  It reads the scheduled listings and runs none.
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
		forms, err := formKernel(name, Models, nil)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		var fpPreds int
		for _, model := range Models {
			c, err := forms[model].Schedule(core.DefaultOptions(mc))
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
	sums := make([][]float64, len(files)) // [file][model]
	for i := range sums {
		sums[i] = make([]float64, len(Models))
	}
	for _, name := range kernels {
		forms, err := formKernel(name, Models, nil)
		if err != nil {
			return nil, err
		}
		for mi, model := range Models {
			// The infinite-register baseline.
			base, err := measureFormed(name, forms[model], mc, []machine.Config{mc})
			if err != nil {
				return nil, err
			}
			for fi, nregs := range files {
				c, err := forms[model].Schedule(core.DefaultOptions(mc))
				if err != nil {
					return nil, err
				}
				res, err := regalloc.Allocate(c.Prog, nregs)
				if err != nil {
					return nil, err
				}
				regalloc.GrowMemory(c.Prog, res)
				c.Prog.AssignAddresses()
				code, err := emu.Decode(c.Prog)
				if err != nil {
					return nil, err
				}
				art := &CellArtifact{Kernel: name, Model: model, Target: mc, Compiled: c, Code: code}
				ms, err := art.MeasureAll([]machine.Config{mc}, false)
				if err != nil {
					return nil, fmt.Errorf("%s %v K=%d: %w", name, model, nregs, err)
				}
				sums[fi][mi] += float64(ms[0].Stats.Cycles) / float64(base[0].Stats.Cycles)
			}
		}
	}
	for fi, nregs := range files {
		row := []string{fmt.Sprintf("%d", nregs)}
		for mi := range Models {
			row = append(row, fmt.Sprintf("%.3f", sums[fi][mi]/float64(len(kernels))))
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
	type level struct {
		label string
		model core.Model
		sel   bool // derived with Partial.UseSelect
	}
	// The first level, superblock code on the measured machine, is also
	// the instruction-count baseline.
	levels := []level{
		{"none (superblock)", core.Superblock, false},
		{"conditional move", core.CondMove, false},
		{"conditional move + select", core.CondMove, true},
		{"guard instructions", core.GuardInstr, false},
		{"full predication", core.FullPred, false},
	}
	sopts := core.DefaultOptions(machine.Config{})
	sopts.Partial.UseSelect = true
	mc := machine.Issue8Br1()
	sumSp := make([]float64, len(levels))
	sumIr := make([]float64, len(levels))
	for _, name := range kernels {
		forms, err := formKernel(name, []core.Model{core.Superblock, core.CondMove, core.GuardInstr, core.FullPred}, nil)
		if err != nil {
			return nil, err
		}
		withSelect, err := forms[core.FullPred].Derive(core.CondMove, sopts)
		if err != nil {
			return nil, fmt.Errorf("%s %v + select: %w", name, core.CondMove, err)
		}
		base, err := measureFormed(name, forms[core.Superblock], machine.Issue1(), []machine.Config{machine.Issue1()})
		if err != nil {
			return nil, err
		}
		sts := make([]sim.Stats, len(levels))
		for li, l := range levels {
			f := forms[l.model]
			if l.sel {
				f = withSelect
			}
			ms, err := measureFormed(name, f, mc, []machine.Config{mc})
			if err != nil {
				return nil, err
			}
			sts[li] = ms[0].Stats
		}
		for li, st := range sts {
			sumSp[li] += float64(base[0].Stats.Cycles) / float64(st.Cycles)
			sumIr[li] += float64(st.Instrs) / float64(sts[0].Instrs)
		}
	}
	n := float64(len(kernels))
	for li, l := range levels {
		t.Rows = append(t.Rows, []string{l.label,
			fmt.Sprintf("%.2f", sumSp[li]/n), fmt.Sprintf("%.2f", sumIr[li]/n)})
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
	// The predictor is a front-end structure the scheduler never sees, so
	// one emulation measures both, a gang lane each: BTB, then gshare.
	lanes := func(mc machine.Config) []machine.Config {
		g := mc
		g.Gshare = true
		return []machine.Config{mc, g}
	}
	labels := []string{"BTB 2-bit (paper)", "gshare"}
	sums := [2][]float64{make([]float64, len(Models)), make([]float64, len(Models))}
	var sbMP [2]int64
	for _, name := range kernels {
		forms, err := formKernel(name, Models, nil)
		if err != nil {
			return nil, err
		}
		base, err := measureFormed(name, forms[core.Superblock], machine.Issue1(), lanes(machine.Issue1()))
		if err != nil {
			return nil, err
		}
		for mi, model := range Models {
			ms, err := measureFormed(name, forms[model], machine.Issue8Br1(), lanes(machine.Issue8Br1()))
			if err != nil {
				return nil, err
			}
			for pi, m := range ms {
				sums[pi][mi] += float64(base[pi].Stats.Cycles) / float64(m.Stats.Cycles)
				if model == core.Superblock {
					sbMP[pi] += m.Stats.Mispredicts
				}
			}
		}
	}
	for pi, label := range labels {
		row := []string{label}
		for mi := range Models {
			row = append(row, fmt.Sprintf("%.2f", sums[pi][mi]/float64(len(kernels))))
		}
		row = append(row, fmt.Sprintf("%d", sbMP[pi]))
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
	// Unrolling changes formation, so each factor forms again; the
	// baseline keeps the default options.
	mc := machine.Issue8Br1()
	sums := make([][]float64, len(factors)) // [factor][model]
	for i := range sums {
		sums[i] = make([]float64, len(Models))
	}
	fpBranches := make([]int64, len(factors))
	for _, name := range kernels {
		sb, err := formKernel(name, []core.Model{core.Superblock}, nil)
		if err != nil {
			return nil, err
		}
		base, err := measureFormed(name, sb[core.Superblock], machine.Issue1(), []machine.Config{machine.Issue1()})
		if err != nil {
			return nil, err
		}
		for fi, factor := range factors {
			forms, err := formKernel(name, Models, func(o *core.Options) { o.Unroll.Factor = factor })
			if err != nil {
				return nil, err
			}
			for mi, model := range Models {
				ms, err := measureFormed(name, forms[model], mc, []machine.Config{mc})
				if err != nil {
					return nil, err
				}
				sums[fi][mi] += float64(base[0].Stats.Cycles) / float64(ms[0].Stats.Cycles)
				if model == core.FullPred {
					fpBranches[fi] += ms[0].Stats.Branches
				}
			}
		}
	}
	for fi, factor := range factors {
		row := []string{fmt.Sprintf("%d", factor)}
		for mi := range Models {
			row = append(row, fmt.Sprintf("%.2f", sums[fi][mi]/float64(len(kernels))))
		}
		row = append(row, fmt.Sprintf("%.2f", float64(fpBranches[fi])/float64(fpBranches[0])))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
