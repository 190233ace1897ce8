// Package core ties the compilation passes into the three pipelines the
// paper evaluates (§4.1):
//
//   - Superblock: the baseline ILP compilation — superblock formation plus
//     speculative scheduling using silent instructions; no predication.
//   - CondMove: hyperblock formation and if-conversion in the fully
//     predicated IR, then lowering to conditional-move code (predicate
//     promotion, basic conversions, peephole optimization).
//   - FullPred: hyperblock formation with the code left fully predicated.
//
// Every pipeline profiles its own clone of the input program (the paper's
// profile-driven formation), optimizes, schedules for the target machine,
// and assigns code addresses for the cache/BTB models.
package core

import (
	"fmt"

	"predication/internal/cfg"
	"predication/internal/emu"
	"predication/internal/guardinstr"
	"predication/internal/hyperblock"
	"predication/internal/ir"
	"predication/internal/irverify"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/opt"
	"predication/internal/partial"
	"predication/internal/sched"
	"predication/internal/superblock"
	"predication/internal/unroll"
)

// Model selects the predication support of the target processor.
type Model int

const (
	// Superblock is the baseline: no predicated execution, superblock
	// compilation with speculative scheduling.
	Superblock Model = iota
	// CondMove extends the baseline with conditional move instructions
	// (partial predication).
	CondMove
	// FullPred extends the baseline with full predicate support: a
	// predicate register file and predicate define instructions.
	FullPred
	// GuardInstr is the intermediate design point of §1/§5: the predicate
	// register file and defines of full predication, but guards delivered
	// by prefix guard instructions instead of per-instruction operand
	// bits (Pnevmatikatos & Sohi's guarded execution).
	GuardInstr
)

// String names the model as in the paper's figures.
func (m Model) String() string {
	switch m {
	case Superblock:
		return "Superblock"
	case CondMove:
		return "Conditional Move"
	case FullPred:
		return "Full Predication"
	case GuardInstr:
		return "Guard Instr"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel resolves the CLI/API names of the models (including the
// short aliases the predsim -model flag has always accepted).
func ParseModel(name string) (Model, error) {
	switch name {
	case "superblock", "sb":
		return Superblock, nil
	case "cmov", "condmove", "partial":
		return CondMove, nil
	case "full", "fullpred":
		return FullPred, nil
	case "guard", "guardinstr":
		return GuardInstr, nil
	}
	return 0, fmt.Errorf("unknown model %q (want superblock, cmov, full, or guard)", name)
}

// Options configures a compilation pipeline.
type Options struct {
	Machine    machine.Config
	Superblock superblock.Params
	Hyperblock hyperblock.Params
	Partial    partial.Options
	// Unroll configures pre-formation loop unrolling (§5's "more advanced
	// compiler optimization techniques"; disabled by default).
	Unroll unroll.Params

	// NoPromotion disables predicate promotion (ablation: Figure 2 shows
	// the code bloat promotion avoids).
	NoPromotion bool
	// NoPeephole disables the partial-predication peephole pass including
	// OR-tree height reduction (ablation).
	NoPeephole bool
	// NoSchedule keeps original instruction order (ablation).
	NoSchedule bool
	// ProfileSteps bounds the profiling emulation run.
	ProfileSteps int64
	// StageHook, when non-nil, is invoked with the program after each
	// pipeline stage (for -stages dumps and stage-level tests).  The
	// program must not be modified by the hook.
	StageHook func(stage string, p *ir.Program)
	// Pipeline, when non-nil, records per-stage wall time and IR
	// snapshots plus the hyperblock sizes chosen at formation (see
	// obs.PipelineTrace).  It additionally gets a "profile" record
	// covering the profiling emulation, which StageHook never sees.
	Pipeline *obs.PipelineTrace
	// VerifyStages runs the structural verifier (internal/irverify) after
	// every pipeline stage, attributing diagnostics to the stage that
	// produced them.  The final model-legality verification always runs;
	// this flag adds the per-stage checks (debug builds and tests).
	VerifyStages bool
}

// DefaultOptions returns the configuration used for the paper's
// experiments on the given machine.
func DefaultOptions(mc machine.Config) Options {
	return Options{
		Machine:    mc,
		Superblock: superblock.DefaultParams(),
		Hyperblock: hyperblock.DefaultParams(),
		Partial:    partial.DefaultOptions(),
		Unroll:     unroll.DefaultParams(),
	}
}

// Compiled is the result of running a pipeline.
type Compiled struct {
	Prog  *ir.Program
	Model Model
	// HyperblockHeads maps function index to hyperblock head block IDs
	// (empty for the superblock model).
	HyperblockHeads map[int][]int
	// Profile is the edge profile collected on Prog before transformation.
	Profile *cfg.Profile
}

// Compile clones the source program and runs the pipeline for the model.
// The source program is never modified.
func Compile(src *ir.Program, model Model, opts Options) (*Compiled, error) {
	p := src.Clone()
	p.Normalize()
	stage := func(name string) error {
		if opts.Pipeline != nil {
			opts.Pipeline.Record(name, p)
		}
		if opts.StageHook != nil {
			opts.StageHook(name, p)
		}
		if opts.VerifyStages {
			if diags := irverify.Verify(p, irverify.Options{Pass: name}); len(diags) > 0 {
				return fmt.Errorf("core: %v pipeline: %w", model, irverify.Error(diags))
			}
		}
		return nil
	}
	if err := stage("normalize"); err != nil {
		return nil, err
	}
	prof := cfg.NewProfile()
	if _, err := emu.Run(p, emu.Options{Profile: prof, MaxSteps: opts.ProfileSteps}); err != nil {
		return nil, fmt.Errorf("core: profiling run failed: %w", err)
	}
	if opts.Pipeline != nil {
		// The profiling emulation is not a transformation, but it is real
		// compile-time cost; give it its own record so the next stage's
		// wall time is its own.
		opts.Pipeline.Record("profile", p)
	}
	res := &Compiled{Prog: p, Model: model, Profile: prof}

	if unroll.Apply(p, prof, opts.Unroll) > 0 {
		if err := stage("unroll"); err != nil {
			return nil, err
		}
		if err := p.Verify(); err != nil {
			return nil, fmt.Errorf("core: unrolling produced invalid IR: %w", err)
		}
	}

	switch model {
	case Superblock:
		superblock.Form(p, prof, opts.Superblock)
		if err := stage("superblock-formation"); err != nil {
			return nil, err
		}
		cleanup(p)
		if err := stage("cleanup"); err != nil {
			return nil, err
		}
	case CondMove, FullPred, GuardInstr:
		hb, err := hyperblock.Form(p, prof, opts.Hyperblock)
		if err != nil {
			return nil, fmt.Errorf("core: hyperblock formation failed: %w", err)
		}
		res.HyperblockHeads = hb.Heads
		if opts.Pipeline != nil {
			for fi := range p.Funcs { // index order: hb.Heads is a map
				for _, id := range hb.Heads[fi] {
					opts.Pipeline.HyperblockSizes = append(opts.Pipeline.HyperblockSizes,
						len(p.Funcs[fi].Blocks[id].Instrs))
				}
			}
		}
		if err := stage("hyperblock-formation"); err != nil {
			return nil, err
		}
		cleanup(p)
		if !opts.NoPromotion {
			for _, f := range p.Funcs {
				for i := 0; i < 4; i++ {
					n := hyperblock.PromoteDefines(f)
					n += hyperblock.Promote(f)
					if n == 0 {
						break
					}
				}
			}
			cleanup(p)
			if err := stage("promotion"); err != nil {
				return nil, err
			}
		}
		for fi, heads := range hb.Heads {
			hyperblock.CombineBranches(p.Funcs[fi], heads, prof, opts.Hyperblock)
		}
		if err := stage("branch-combining"); err != nil {
			return nil, err
		}
		if model == CondMove {
			if err := partial.Convert(p, opts.Partial); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			cleanup(p)
			if err := stage("partial-conversion"); err != nil {
				return nil, err
			}
			if !opts.NoPeephole {
				partial.Peephole(p)
				if opts.Partial.UseSelect {
					partial.FuseSelects(p)
				}
				cleanup(p)
				if err := stage("peephole"); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown model %v", model)
	}

	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("core: %v pipeline produced invalid IR: %w", model, err)
	}
	if !opts.NoSchedule {
		sched.Schedule(p, opts.Machine)
		if err := stage("schedule"); err != nil {
			return nil, err
		}
		if err := p.Verify(); err != nil {
			return nil, fmt.Errorf("core: scheduling produced invalid IR: %w", err)
		}
	}
	if model == GuardInstr {
		// Lower after scheduling so run lengths reflect the final order.
		guardinstr.Lower(p)
		if err := stage("guard-lowering"); err != nil {
			return nil, err
		}
		if err := p.Verify(); err != nil {
			return nil, fmt.Errorf("core: guard lowering produced invalid IR: %w", err)
		}
	}
	// Unconditional final check: the emitted program must be legal for the
	// target model (a guard surviving partial conversion or a predicate
	// define in superblock output is a miscompile, not a debug concern).
	if diags := irverify.Verify(p, irverify.Options{Pass: "final", Model: verifyModel(model)}); len(diags) > 0 {
		return nil, fmt.Errorf("core: %v pipeline emitted illegal IR: %w", model, irverify.Error(diags))
	}
	p.AssignAddresses()
	return res, nil
}

// verifyModel maps the pipeline model to the verifier's legality rules.
func verifyModel(m Model) irverify.Model {
	switch m {
	case Superblock:
		return irverify.Baseline
	case CondMove:
		return irverify.CondMove
	case FullPred:
		return irverify.FullPred
	case GuardInstr:
		return irverify.GuardInstr
	}
	return irverify.AnyModel
}

func cleanup(p *ir.Program) {
	for _, f := range p.Funcs {
		opt.Cleanup(f)
	}
}
