package predication

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation section:
//
//	BenchmarkFigure8  — speedup, 8-issue 1-branch, perfect caches
//	BenchmarkFigure9  — speedup, 8-issue 2-branch, perfect caches
//	BenchmarkFigure10 — speedup, 4-issue 1-branch, perfect caches
//	BenchmarkFigure11 — speedup, 8-issue 1-branch, 64K I/D caches
//	BenchmarkTable2   — dynamic instruction count comparison
//	BenchmarkTable3   — branch statistics (BR / MP / MPR)
//	BenchmarkFigure5WcLoop / BenchmarkFigure6GrepLoop — the worked examples
//
// plus ablation benchmarks for the design decisions DESIGN.md calls out
// (OR-tree reduction, predicate promotion, branch combining, suppression
// stage, conversion variants).  Figures are printed once per run; the
// per-figure numeric series are also attached as custom benchmark metrics
// so `go test -bench` output records them.
//
// Absolute cycle counts are not expected to match the paper (the substrate
// is a synthetic-kernel simulator, not the authors' PA-RISC testbed); the
// shapes — who wins, by roughly what factor, where the crossovers fall —
// are the reproduction target.  See EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"predication/internal/bench"
	"predication/internal/builder"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

var (
	suiteOnce sync.Once
	suiteVal  *experiments.Suite
	suiteErr  error
)

// fullSuite runs the complete evaluation once per test binary invocation.
func fullSuite(b *testing.B) *experiments.Suite {
	suiteOnce.Do(func() {
		suiteVal, suiteErr = experiments.Run(experiments.Options{})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// reportFigure prints the rendered table once and attaches the mean
// speedups as metrics.
func reportFigure(b *testing.B, s *experiments.Suite, tab *experiments.Table, cfg string) {
	b.Helper()
	fmt.Println(tab.String())
	b.ReportMetric(s.MeanSpeedup(core.Superblock, cfg), "superblk-x")
	b.ReportMetric(s.MeanSpeedup(core.CondMove, cfg), "condmove-x")
	b.ReportMetric(s.MeanSpeedup(core.FullPred, cfg), "fullpred-x")
	b.ReportMetric(0, "ns/op") // wall time is not the quantity of interest
}

func BenchmarkFigure8(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Figure8()
	}
	reportFigure(b, s, t, "issue8-br1")
}

func BenchmarkFigure9(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Figure9()
	}
	reportFigure(b, s, t, "issue8-br2")
}

func BenchmarkFigure10(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Figure10()
	}
	reportFigure(b, s, t, "issue4-br1")
}

func BenchmarkFigure11(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Figure11()
	}
	reportFigure(b, s, t, "issue8-br1-64k")
}

func BenchmarkTable2(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Table2()
	}
	fmt.Println(t.String())
	b.ReportMetric(s.MeanInstrRatio(core.CondMove), "condmove-instr-ratio")
	b.ReportMetric(s.MeanInstrRatio(core.FullPred), "fullpred-instr-ratio")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkTable3(b *testing.B) {
	s := fullSuite(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = s.Table3()
	}
	fmt.Println(t.String())
	var sbBR, cmBR, fpBR int64
	for _, r := range s.Results {
		sbBR += r.Stat(core.Superblock, "issue8-br1").Branches
		cmBR += r.Stat(core.CondMove, "issue8-br1").Branches
		fpBR += r.Stat(core.FullPred, "issue8-br1").Branches
	}
	b.ReportMetric(float64(cmBR)/float64(sbBR), "condmove-branch-ratio")
	b.ReportMetric(float64(fpBR)/float64(sbBR), "fullpred-branch-ratio")
	b.ReportMetric(0, "ns/op")
}

// measure compiles, emulates and simulates a kernel once.
func measure(b *testing.B, name string, model core.Model, mc machine.Config, opts *core.Options) sim.Stats {
	b.Helper()
	k, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions(mc)
	if opts != nil {
		o = *opts
	}
	c, err := core.Compile(k.Build(), model, o)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.NewTiming(c.Prog, mc)
	if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
		b.Fatal(err)
	}
	return s.Stats()
}

// BenchmarkFigure5WcLoop reproduces the wc example: per-model cycle counts
// on the paper's 4-issue, 1-branch schedule machine.
func BenchmarkFigure5WcLoop(b *testing.B) {
	mc := machine.Issue4Br1()
	var sb, cm, fp sim.Stats
	for i := 0; i < b.N; i++ {
		sb = measure(b, "wc", core.Superblock, mc, nil)
		cm = measure(b, "wc", core.CondMove, mc, nil)
		fp = measure(b, "wc", core.FullPred, mc, nil)
	}
	b.ReportMetric(float64(sb.Cycles), "superblk-cycles")
	b.ReportMetric(float64(cm.Cycles), "condmove-cycles")
	b.ReportMetric(float64(fp.Cycles), "fullpred-cycles")
}

// BenchmarkFigure6GrepLoop reproduces the grep example (8-issue 1-branch):
// branch combining plus OR-type evaluation.
func BenchmarkFigure6GrepLoop(b *testing.B) {
	mc := machine.Issue8Br1()
	var sb, cm, fp sim.Stats
	for i := 0; i < b.N; i++ {
		sb = measure(b, "grep", core.Superblock, mc, nil)
		cm = measure(b, "grep", core.CondMove, mc, nil)
		fp = measure(b, "grep", core.FullPred, mc, nil)
	}
	b.ReportMetric(float64(sb.Cycles), "superblk-cycles")
	b.ReportMetric(float64(cm.Cycles), "condmove-cycles")
	b.ReportMetric(float64(fp.Cycles), "fullpred-cycles")
	b.ReportMetric(float64(sb.Branches), "superblk-branches")
	b.ReportMetric(float64(fp.Branches), "fullpred-branches")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationORTree: partial predication with and without OR-tree
// height reduction on grep.
func BenchmarkAblationORTree(b *testing.B) {
	mc := machine.Issue8Br1()
	with := core.DefaultOptions(mc)
	without := core.DefaultOptions(mc)
	without.NoPeephole = true
	var w, wo sim.Stats
	for i := 0; i < b.N; i++ {
		w = measure(b, "grep", core.CondMove, mc, &with)
		wo = measure(b, "grep", core.CondMove, mc, &without)
	}
	b.ReportMetric(float64(w.Cycles), "with-ortree-cycles")
	b.ReportMetric(float64(wo.Cycles), "without-ortree-cycles")
}

// BenchmarkAblationPromotion: conversion without predicate promotion
// (Figure 2's upper-right code shape) on wc.
func BenchmarkAblationPromotion(b *testing.B) {
	mc := machine.Issue8Br1()
	with := core.DefaultOptions(mc)
	without := core.DefaultOptions(mc)
	without.NoPromotion = true
	var w, wo sim.Stats
	for i := 0; i < b.N; i++ {
		w = measure(b, "wc", core.CondMove, mc, &with)
		wo = measure(b, "wc", core.CondMove, mc, &without)
	}
	b.ReportMetric(float64(w.Instrs), "with-promotion-instrs")
	b.ReportMetric(float64(wo.Instrs), "without-promotion-instrs")
}

// BenchmarkAblationCombining: grep with branch combining disabled — the
// misprediction anomaly disappears, the branch count rises.
func BenchmarkAblationCombining(b *testing.B) {
	mc := machine.Issue8Br1()
	with := core.DefaultOptions(mc)
	without := core.DefaultOptions(mc)
	without.Hyperblock.CombineBranches = false
	var w, wo sim.Stats
	for i := 0; i < b.N; i++ {
		w = measure(b, "grep", core.FullPred, mc, &with)
		wo = measure(b, "grep", core.FullPred, mc, &without)
	}
	b.ReportMetric(float64(w.Branches), "with-combining-branches")
	b.ReportMetric(float64(wo.Branches), "without-combining-branches")
	b.ReportMetric(float64(w.Mispredicts), "with-combining-mispredicts")
	b.ReportMetric(float64(wo.Mispredicts), "without-combining-mispredicts")
}

// BenchmarkAblationSuppressionStage: decode/issue-stage versus
// writeback-stage predicate suppression (§2.1) on wc full predication.
func BenchmarkAblationSuppressionStage(b *testing.B) {
	decodeCfg := machine.Issue8Br1()
	wbCfg := machine.Issue8Br1()
	wbCfg.WritebackSuppression = true
	wbOpts := core.DefaultOptions(wbCfg)
	var dec, wb sim.Stats
	for i := 0; i < b.N; i++ {
		dec = measure(b, "wc", core.FullPred, decodeCfg, nil)
		wb = measure(b, "wc", core.FullPred, wbCfg, &wbOpts)
	}
	b.ReportMetric(float64(dec.Cycles), "decode-suppress-cycles")
	b.ReportMetric(float64(wb.Cycles), "writeback-suppress-cycles")
}

// BenchmarkAblationExceptingConversion: Figure 3 (non-excepting) versus
// Figure 4 (excepting) conversion cost, with and without select
// instructions, on a division-heavy guarded kernel (divisions are where
// the Figure 4 sequences differ and where select saves an instruction).
func BenchmarkAblationExceptingConversion(b *testing.B) {
	mc := machine.Issue8Br1()
	nonExc := core.DefaultOptions(mc)
	exc := core.DefaultOptions(mc)
	exc.Partial.NonExcepting = false
	excSel := core.DefaultOptions(mc)
	excSel.Partial.NonExcepting = false
	excSel.Partial.UseSelect = true
	run := func(o *core.Options) sim.Stats {
		c, err := core.Compile(divKernel(), core.CondMove, *o)
		if err != nil {
			b.Fatal(err)
		}
		s := sim.NewTiming(c.Prog, mc)
		if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
			b.Fatal(err)
		}
		return s.Stats()
	}
	var a, c, d sim.Stats
	for i := 0; i < b.N; i++ {
		a = run(&nonExc)
		c = run(&exc)
		d = run(&excSel)
	}
	b.ReportMetric(float64(a.Instrs), "nonexcepting-instrs")
	b.ReportMetric(float64(c.Instrs), "excepting-instrs")
	b.ReportMetric(float64(d.Instrs), "excepting-select-instrs")
}

// --- Component micro-benchmarks ---

// BenchmarkCompileFullPred times whole compiles of a small function (wc,
// ~20 blocks) and of the suite's largest (eqn, ~4,000 blocks), where any
// step superlinear in function size dominates, under the baseline and
// both predicated pipelines.
func BenchmarkCompileFullPred(b *testing.B) {
	mc := machine.Issue8Br1()
	for _, name := range []string{"wc", "eqn"} {
		k, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, model := range []struct {
			name  string
			model core.Model
		}{{"superblock", core.Superblock}, {"cmov", core.CondMove}, {"full", core.FullPred}} {
			b.Run(name+"/"+model.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Compile(k.Build(), model.model, core.DefaultOptions(mc)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSchedule times the per-target half of a compile on eqn, the
// suite's largest function: list scheduling, guard lowering and the final
// legality check of a program formed once per model family, for
// issue8-br1 — the work a serving daemon's cold miss does after a formed
// program cache hit.
func BenchmarkSchedule(b *testing.B) {
	k, err := bench.ByName("eqn")
	if err != nil {
		b.Fatal(err)
	}
	src := k.Build()
	fopts := core.DefaultOptions(machine.Config{})
	sb, err := core.Form(src, core.Superblock, fopts)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.Form(src, core.FullPred, fopts)
	if err != nil {
		b.Fatal(err)
	}
	cmov, err := full.Derive(core.CondMove, fopts)
	if err != nil {
		b.Fatal(err)
	}
	guard, err := full.Derive(core.GuardInstr, fopts)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions(machine.Issue8Br1())
	for _, f := range []struct {
		name string
		f    *core.Formed
	}{{"superblock", sb}, {"cmov", cmov}, {"full", full}, {"guard", guard}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.f.Schedule(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeArtifact times the store encoding of eqn's
// conditional-move artifact, the largest listing a cold daemon miss
// writes through.
func BenchmarkEncodeArtifact(b *testing.B) {
	art, err := experiments.CompileCell("eqn", core.CondMove, machine.Issue8Br1())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EncodeArtifact(art); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulate(b *testing.B) {
	k, _ := bench.ByName("wc")
	p := k.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := emu.Run(p, emu.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// recorder collects the emulator's event stream for replay.
type recorder struct{ evs []emu.Event }

func (r *recorder) EventBatch(evs []emu.Event) { r.evs = append(r.evs, evs...) }

// BenchmarkSimulate times the simulator alone, replaying a recorded
// event stream.
func BenchmarkSimulate(b *testing.B) {
	k, _ := bench.ByName("wc")
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		b.Fatal(err)
	}
	var rec recorder
	if _, err := emu.Run(c.Prog, emu.Options{Sink: &rec}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.NewTiming(c.Prog, machine.Issue8Br1()).EventBatch(rec.evs)
	}
}

// BenchmarkSimulateStreaming times the emulate+simulate path with the
// trace streamed into the simulator, never materialized — the harness's
// per-run configuration (contrast with BenchmarkSimulate, which replays a
// recorded stream).
func BenchmarkSimulateStreaming(b *testing.B) {
	k, _ := bench.ByName("wc")
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.NewTiming(c.Prog, machine.Issue8Br1())
		if _, err := emu.Run(c.Prog, emu.Options{Sink: s}); err != nil {
			b.Fatal(err)
		}
		if s.Stats().Cycles == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// divKernel is a loop whose diamond guards a division — the shape where
// the excepting conversions (Figure 4) must substitute a safe divisor.
func divKernel() *ir.Program {
	p := builder.New(1 << 12)
	const n = 800
	vals := make([]int64, n)
	s := uint64(17)
	for i := range vals {
		s = s*6364136223846793005 + 1
		vals[i] = int64((s >> 33) % 50) // zero ~2% of the time
	}
	data := p.Words(vals...)
	f := p.Func("main")
	i, v, acc := f.Reg(), f.Reg(), f.Reg()
	entry := f.Entry()
	loop := f.Block("loop")
	divB := f.Block("div")
	join := f.Block("join")
	done := f.Block("done")
	entry.Mov(i, 0).Mov(acc, 1000000)
	entry.Fall(loop)
	loop.Br(ir.GE, i, n, done)
	loop.Load(v, i, data)
	loop.Br(ir.EQ, v, 0, join) // guard the division against zero
	loop.Fall(divB)
	divB.I(ir.Div, acc, acc, v)
	divB.I(ir.Add, acc, acc, 1000)
	divB.Fall(join)
	join.I(ir.Add, i, i, 1)
	join.Jmp(loop)
	done.Store(0, 8, acc)
	done.Halt()
	return p.Program()
}
