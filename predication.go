// Package predication reproduces the system evaluated in
//
//	S. A. Mahlke, R. E. Hank, J. E. McCormick, D. I. August, W. W. Hwu.
//	"A Comparison of Full and Partial Predicated Execution Support for
//	ILP Processors", ISCA-22, June 1995.
//
// It provides an ILP compiler and emulation-driven timing simulator for a
// generic load/store architecture with three levels of predicated
// execution support:
//
//   - Superblock — the baseline: no predication, superblock compilation
//     with speculative scheduling using silent (non-excepting)
//     instructions;
//   - CondMove — partial predication: hyperblock if-conversion in a fully
//     predicated IR, then lowering to conditional-move code;
//   - FullPred — full predication: a predicate register file, predicate
//     define instructions with U/OR/AND-type destinations, and guarded
//     execution of every instruction.
//
// The package is a facade over the internal compiler passes; the typical
// flow is: build a program (internal/builder or bench kernels), Compile it
// for a model and machine, Run the result on the emulator, and Simulate
// the trace on a machine configuration.  RunExperiments regenerates every
// figure and table of the paper's evaluation.
package predication

import (
	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

// Model selects the target's predication support.
type Model = core.Model

// The three processor models of the paper (§4.1), plus the
// guard-instruction intermediate design point its conclusion asks future
// work to explore.
const (
	Superblock = core.Superblock
	CondMove   = core.CondMove
	FullPred   = core.FullPred
	GuardInstr = core.GuardInstr
)

// Config is a processor configuration (issue width, branch slots, caches,
// branch prediction).
type Config = machine.Config

// The paper's machine configurations.
var (
	// Issue8Br1 is the 8-issue, 1-branch, perfect-cache processor (Figure 8).
	Issue8Br1 = machine.Issue8Br1
	// Issue8Br2 is the 8-issue, 2-branch processor (Figure 9).
	Issue8Br2 = machine.Issue8Br2
	// Issue4Br1 is the 4-issue, 1-branch processor (Figure 10).
	Issue4Br1 = machine.Issue4Br1
	// Issue8Br1Cache adds 64K direct-mapped I/D caches (Figure 11).
	Issue8Br1Cache = machine.Issue8Br1Cache
	// Issue1 is the 1-issue baseline used as the speedup denominator.
	Issue1 = machine.Issue1
)

// Compile runs the full compilation pipeline for the model on a clone of
// the program: profiling, superblock or hyperblock formation, optimization,
// conversion (for CondMove), scheduling, and address assignment.
func Compile(p *ir.Program, model Model, cfg Config) (*core.Compiled, error) {
	return core.Compile(p, model, core.DefaultOptions(cfg))
}

// CompileWithOptions exposes the full pipeline option set (formation
// parameters, conversion variants, ablation switches).
func CompileWithOptions(p *ir.Program, model Model, opts core.Options) (*core.Compiled, error) {
	return core.Compile(p, model, opts)
}

// Run emulates a compiled program to completion, returning its final
// memory image and, when trace is true, the dynamic instruction trace.
func Run(p *ir.Program, trace bool) (*emu.Result, error) {
	return emu.Run(p, emu.Options{Trace: trace})
}

// TraceSink consumes the dynamic instruction stream as the emulator
// produces it (see RunInto and NewSimulator).
type TraceSink = emu.TraceSink

// RunInto emulates a compiled program, streaming every dynamic
// instruction into sink instead of materializing a trace.  With a
// NewSimulator sink this times the program in O(1) memory per run.
func RunInto(p *ir.Program, sink TraceSink) (*emu.Result, error) {
	return emu.Run(p, emu.Options{Sink: sink})
}

// Simulate times a materialized dynamic trace on the configured processor
// model.
func Simulate(p *ir.Program, trace []emu.Event, cfg Config) sim.Stats {
	return sim.Simulate(p, trace, cfg)
}

// NewSimulator creates a streaming timing simulator for the program and
// configuration.  It implements TraceSink: pass it to RunInto, then read
// its Stats.
func NewSimulator(p *ir.Program, cfg Config) *sim.Simulator {
	return sim.NewTiming(p, cfg)
}

// Benchmarks returns the fifteen benchmark kernels standing in for the
// paper's SPEC-92 and Unix utility programs.
func Benchmarks() []*bench.Kernel { return bench.All() }

// RunExperiments executes the complete evaluation (every benchmark, model,
// and machine configuration) and returns the suite from which all paper
// figures and tables render.
func RunExperiments(opts experiments.Options) (*experiments.Suite, error) {
	return experiments.Run(opts)
}
