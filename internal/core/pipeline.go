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
// A pipeline has two halves, and only the second reads the target
// machine.  Form profiles its own clone of the input program (the paper's
// profile-driven formation), forms superblocks or hyperblocks and
// optimizes them; for conditional move it then converts the fully
// predicated code.  Schedule clones a formed program, schedules it for
// one target, lowers guards for the guard-instruction model, checks the
// result's legality and assigns code addresses for the cache/BTB models.
// Compile runs both halves on one program.  A caller that measures one
// kernel on several targets forms once per model family and schedules per
// target, deriving the conditional-move form from the fully predicated
// one (Formed.Derive), as the paper's compiler does.
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
}

// Family returns the model whose formed program m's pipeline shares:
// FullPred for the three hyperblock models (conditional-move code is
// derived from the fully predicated hyperblocks, and guard instructions
// are lowered from them after scheduling), and m itself otherwise.
func (m Model) Family() Model {
	if m == CondMove || m == GuardInstr {
		return FullPred
	}
	return m
}

// Formed is a program after every stage of its model's pipeline that does
// not read the target machine.  Prog must not be modified once Form
// returns: Schedule and Derive work on clones, so one Formed serves every
// target and concurrent Schedule calls are safe.
type Formed struct {
	Prog  *ir.Program
	Model Model
}

// Compile clones the source program and runs the pipeline for the model:
// Form and Schedule on one program, scheduling in place.  The source
// program is never modified.
func Compile(src *ir.Program, model Model, opts Options) (*Compiled, error) {
	f, err := Form(src, model, opts)
	if err != nil {
		return nil, err
	}
	if err := schedule(f.Prog, model, opts); err != nil {
		return nil, err
	}
	return &Compiled{Prog: f.Prog, Model: model}, nil
}

// Form clones the source program and runs every stage of the model's
// pipeline that does not read opts.Machine: normalization, the profiling
// emulation, unrolling, superblock or hyperblock formation with
// promotion and branch combining, and for CondMove the full-to-partial
// conversion and peephole.  The source program is never modified.
func Form(src *ir.Program, model Model, opts Options) (*Formed, error) {
	p := src.Clone()
	if err := form(p, model, opts); err != nil {
		return nil, err
	}
	return &Formed{Prog: p, Model: model}, nil
}

// Schedule clones the formed program and runs the per-target stages for
// opts.Machine: list scheduling, guard lowering for GuardInstr, the final
// legality check (VerifyEmitted) and code addresses.  The result is the
// listing Compile emits for the same model and options.
func (f *Formed) Schedule(opts Options) (*Compiled, error) {
	p := f.Prog.Clone()
	if err := schedule(p, f.Model, opts); err != nil {
		return nil, err
	}
	return &Compiled{Prog: p, Model: f.Model}, nil
}

// Derive returns the form of another model of f's family (see Family)
// without forming again.  The fully predicated hyperblocks are the form
// of both FullPred and GuardInstr, so between those two the program is
// shared; CondMove clones it and runs the full-to-partial conversion and
// peephole, the paper's derivation of conditional-move code (§3).  A
// conditional-move form derives nothing but itself.
func (f *Formed) Derive(model Model, opts Options) (*Formed, error) {
	switch {
	case model == f.Model:
		return f, nil
	case f.Model == CondMove || f.Model.Family() != FullPred || model.Family() != FullPred:
		return nil, fmt.Errorf("core: cannot derive %v code from a %v form", model, f.Model)
	case model != CondMove:
		return &Formed{Prog: f.Prog, Model: model}, nil
	}
	p := f.Prog.Clone()
	if err := convert(p, opts); err != nil {
		return nil, err
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("core: %v pipeline produced invalid IR: %w", model, err)
	}
	return &Formed{Prog: p, Model: model}, nil
}

// stager reports one pipeline stage to the options' observers: the stage
// trace, the stage hook and, under VerifyStages, the structural verifier.
type stager struct {
	p     *ir.Program
	model Model
	opts  *Options
}

func (s stager) stage(name string) error {
	if s.opts.Pipeline != nil {
		s.opts.Pipeline.Record(name, s.p)
	}
	if s.opts.StageHook != nil {
		s.opts.StageHook(name, s.p)
	}
	if s.opts.VerifyStages {
		if diags := irverify.Verify(s.p, irverify.Options{Pass: name}); len(diags) > 0 {
			return fmt.Errorf("core: %v pipeline: %w", s.model, irverify.Error(diags))
		}
	}
	return nil
}

// form runs Form's stages on p in place.
func form(p *ir.Program, model Model, opts Options) error {
	switch model {
	case Superblock, CondMove, FullPred, GuardInstr:
	default:
		return fmt.Errorf("core: unknown model %v", model)
	}
	st := stager{p, model, &opts}
	p.Normalize()
	if err := st.stage("normalize"); err != nil {
		return err
	}
	prof := cfg.NewProfile()
	if _, err := emu.Run(p, emu.Options{Profile: prof, MaxSteps: opts.ProfileSteps}); err != nil {
		return fmt.Errorf("core: profiling run failed: %w", err)
	}
	if opts.Pipeline != nil {
		// The profiling emulation is not a transformation, but it is real
		// compile-time cost; give it its own record so the next stage's
		// wall time is its own.
		opts.Pipeline.Record("profile", p)
	}

	if unroll.Apply(p, prof, opts.Unroll) > 0 {
		if err := st.stage("unroll"); err != nil {
			return err
		}
		if err := p.Verify(); err != nil {
			return fmt.Errorf("core: unrolling produced invalid IR: %w", err)
		}
	}

	if model == Superblock {
		superblock.Form(p, prof, opts.Superblock)
		if err := st.stage("superblock-formation"); err != nil {
			return err
		}
		cleanup(p)
		if err := st.stage("cleanup"); err != nil {
			return err
		}
	} else {
		hb, err := hyperblock.Form(p, prof, opts.Hyperblock)
		if err != nil {
			return fmt.Errorf("core: hyperblock formation failed: %w", err)
		}
		if opts.Pipeline != nil {
			for fi := range p.Funcs { // index order: hb.Heads is a map
				for _, id := range hb.Heads[fi] {
					opts.Pipeline.HyperblockSizes = append(opts.Pipeline.HyperblockSizes,
						len(p.Funcs[fi].Blocks[id].Instrs))
				}
			}
		}
		if err := st.stage("hyperblock-formation"); err != nil {
			return err
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
			if err := st.stage("promotion"); err != nil {
				return err
			}
		}
		for fi, heads := range hb.Heads {
			hyperblock.CombineBranches(p.Funcs[fi], heads, prof, opts.Hyperblock)
		}
		if err := st.stage("branch-combining"); err != nil {
			return err
		}
		if model == CondMove {
			if err := convert(p, opts); err != nil {
				return err
			}
		}
	}

	if err := p.Verify(); err != nil {
		return fmt.Errorf("core: %v pipeline produced invalid IR: %w", model, err)
	}
	return nil
}

// convert lowers fully predicated hyperblocks to conditional-move code in
// place: the full-to-partial conversion, then the peephole pass.
func convert(p *ir.Program, opts Options) error {
	st := stager{p, CondMove, &opts}
	if err := partial.Convert(p, opts.Partial); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	cleanup(p)
	if err := st.stage("partial-conversion"); err != nil {
		return err
	}
	if !opts.NoPeephole {
		partial.Peephole(p)
		if opts.Partial.UseSelect {
			partial.FuseSelects(p)
		}
		cleanup(p)
		if err := st.stage("peephole"); err != nil {
			return err
		}
	}
	return nil
}

// schedule runs Schedule's stages on p in place.
func schedule(p *ir.Program, model Model, opts Options) error {
	st := stager{p, model, &opts}
	if !opts.NoSchedule {
		sched.Schedule(p, opts.Machine)
		if err := st.stage("schedule"); err != nil {
			return err
		}
		if err := p.Verify(); err != nil {
			return fmt.Errorf("core: scheduling produced invalid IR: %w", err)
		}
	}
	if model == GuardInstr {
		// Lower after scheduling so run lengths reflect the final order.
		guardinstr.Lower(p)
		if err := st.stage("guard-lowering"); err != nil {
			return err
		}
		if err := p.Verify(); err != nil {
			return fmt.Errorf("core: guard lowering produced invalid IR: %w", err)
		}
	}
	if err := VerifyEmitted(p, model); err != nil {
		return err
	}
	p.AssignAddresses()
	return nil
}

// VerifyEmitted is the unconditional final check every emitted listing
// passes: the program must be legal for the target model (a guard
// surviving partial conversion or a predicate define in superblock output
// is a miscompile, not a debug concern).  Schedule runs it on every
// listing, and the artifact decoder on every listing it reads back.
func VerifyEmitted(p *ir.Program, model Model) error {
	rules := irverify.AnyModel
	switch model {
	case Superblock:
		rules = irverify.Baseline
	case CondMove:
		rules = irverify.CondMove
	case FullPred:
		rules = irverify.FullPred
	case GuardInstr:
		rules = irverify.GuardInstr
	}
	if diags := irverify.Verify(p, irverify.Options{Pass: "final", Model: rules}); len(diags) > 0 {
		return fmt.Errorf("core: %v pipeline emitted illegal IR: %w", model, irverify.Error(diags))
	}
	return nil
}

func cleanup(p *ir.Program) {
	for _, f := range p.Funcs {
		opt.Cleanup(f)
	}
}
