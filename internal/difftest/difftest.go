// Package difftest is the cross-model differential oracle behind
// cmd/predfuzz.  The paper's central claim is that the superblock,
// conditional-move, full-predication, and guard-instruction pipelines
// emit semantically identical programs whose only difference is
// performance; this package turns that claim into an executable check
// over progen-generated programs:
//
//	source --emulate--> reference memory image + checksum
//	source --compile(model)--> emulate --> must match, for every model
//
// A mismatch in final checksum, memory image, or trap behaviour is a
// Divergence.  Divergences are delta-minimized (blocks, then
// instructions, dropped while the same divergence reproduces) and written
// as self-contained .psasm repro artifacts that predsim can run directly.
package difftest

import (
	"fmt"
	"os"
	"path/filepath"

	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/progen"

	"predication/internal/asm"
)

// Kind classifies how a model diverged from the reference emulation.
type Kind string

// Divergence kinds.
const (
	// KindCompile: the pipeline rejected a program the reference runs.
	KindCompile Kind = "compile"
	// KindTrap: the compiled program trapped or exceeded the step budget
	// while the reference completed.
	KindTrap Kind = "trap"
	// KindChecksum: the checksum word differs from the reference.
	KindChecksum Kind = "checksum"
	// KindMemory: a non-reserved memory word differs from the reference.
	KindMemory Kind = "memory"
)

// Options configures the oracle.  Use DefaultOptions as the base: the
// zero value has no machine configuration or generator parameters.
type Options struct {
	// Machine is the scheduling target (performance-neutral for the
	// oracle, but it exercises model-specific schedules).
	Machine machine.Config
	// Models are the pipelines compared against the reference.
	Models []core.Model
	// Params configures progen.
	Params progen.Params
	// Nested selects progen.GenerateNested (two-level loop nests) instead
	// of progen.Generate.
	Nested bool
	// MaxSteps bounds every emulation run.  Minimization candidates can
	// loop forever, so this must stay well under emu's 500M default.
	MaxSteps int64
	// VerifyStages enables the per-stage IR verifier during compilation.
	VerifyStages bool
	// Mutate, when non-nil, is applied to each compiled program before
	// emulation.  It exists to inject miscompiles in tests of the oracle
	// itself (fault injection), and is reapplied during minimization so
	// the injected divergence keeps reproducing.
	Mutate func(p *ir.Program, model core.Model)
}

// DefaultOptions returns the standard oracle configuration: all four
// compilation pipelines — the paper's three models plus the guard-
// instruction design point (internal/guardinstr, the predication-spectrum
// arm of EXPERIMENTS.md) — on the 8-issue machine, default generator
// parameters, and a 5M-step emulation budget.
func DefaultOptions() Options {
	return Options{
		Machine:  machine.Issue8Br1(),
		Models:   []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr},
		Params:   progen.Default(),
		MaxSteps: 5_000_000,
	}
}

// Divergence is one disagreement between a compiled model and the
// reference emulation of the same source program.
type Divergence struct {
	Seed   uint64
	Nested bool
	Model  core.Model
	Kind   Kind
	Detail string
	// Source is the generated program exposing the divergence, after
	// minimization when Minimize has run.
	Source *ir.Program
}

// String formats the divergence as one line.
func (d *Divergence) String() string {
	shape := "flat"
	if d.Nested {
		shape = "nested"
	}
	return fmt.Sprintf("seed %d (%s) model %v: %s: %s", d.Seed, shape, d.Model, d.Kind, d.Detail)
}

// Source generates the program for a seed under the options' shape.
func Source(seed uint64, opts Options) *ir.Program {
	if opts.Nested {
		return progen.GenerateNested(seed, opts.Params)
	}
	return progen.Generate(seed, opts.Params)
}

// Check runs the oracle on one generated seed.  It returns the first
// divergence found (nil when all models agree), or an error when the
// reference emulation itself fails — a generator bug, not a miscompile.
func Check(seed uint64, opts Options) (*Divergence, error) {
	return CheckProgram(Source(seed, opts), seed, opts)
}

// CheckProgram runs the oracle on an explicit source program (used by
// minimization, which mutates the source and re-checks).
func CheckProgram(src *ir.Program, seed uint64, opts Options) (*Divergence, error) {
	ref, err := emu.Run(src, emu.Options{MaxSteps: opts.MaxSteps})
	if err != nil {
		return nil, fmt.Errorf("difftest: seed %d: reference emulation failed: %w", seed, err)
	}
	want := ref.Word(progen.CheckAddr)

	diverge := func(model core.Model, kind Kind, format string, args ...any) *Divergence {
		return &Divergence{Seed: seed, Nested: opts.Nested, Model: model, Kind: kind,
			Detail: fmt.Sprintf(format, args...), Source: src}
	}
	for _, model := range opts.Models {
		copts := core.DefaultOptions(opts.Machine)
		copts.VerifyStages = opts.VerifyStages
		c, err := core.Compile(src, model, copts)
		if err != nil {
			return diverge(model, KindCompile, "%v", err), nil
		}
		if opts.Mutate != nil {
			opts.Mutate(c.Prog, model)
		}
		res, err := emu.Run(c.Prog, emu.Options{MaxSteps: opts.MaxSteps})
		if err != nil {
			return diverge(model, KindTrap, "reference completed but compiled program failed: %v", err), nil
		}
		if got := res.Word(progen.CheckAddr); got != want {
			return diverge(model, KindChecksum, "checksum %#x, want %#x", got, want), nil
		}
		if addr, got, ok := memDiff(ref.Mem, res.Mem); ok {
			return diverge(model, KindMemory, "mem[%d] = %#x, want %#x", addr, got, ref.Mem[addr]), nil
		}
	}
	return nil, nil
}

// memDiff compares final memory images, skipping ir.SafeAddr: partial
// predication redirects suppressed stores to the reserved safe word, so
// its final contents are model-specific by design.
func memDiff(ref, got []int64) (addr int, val int64, differs bool) {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if int64(i) == ir.SafeAddr {
			continue
		}
		if ref[i] != got[i] {
			return i, got[i], true
		}
	}
	if len(ref) != len(got) {
		return n, 0, true
	}
	return 0, 0, false
}

// Minimize delta-minimizes the divergence's source program: it repeatedly
// tries marking blocks dead and deleting instructions, keeping each edit
// only while the SAME divergence (model and kind) still reproduces.
// Edits that break the program are rejected naturally — they change the
// divergence kind (usually to compile) or fix it.  The divergence's
// Source is replaced with the minimized program, which is returned.
func Minimize(d *Divergence, opts Options) *ir.Program {
	cur := d.Source.Clone()
	reproduces := func(p *ir.Program) bool {
		nd, err := CheckProgram(p, d.Seed, opts)
		return err == nil && nd != nil && nd.Model == d.Model && nd.Kind == d.Kind
	}
	for changed := true; changed; {
		changed = false
		// Whole blocks first: one test can discard many instructions.
		for _, f := range cur.Funcs {
			for bi, b := range f.Blocks {
				if b == nil || b.Dead || bi == f.Entry {
					continue
				}
				b.Dead = true
				if reproduces(cur) {
					changed = true
				} else {
					b.Dead = false
				}
			}
		}
		for _, f := range cur.Funcs {
			for _, b := range f.Blocks {
				if b == nil || b.Dead {
					continue
				}
				for i := len(b.Instrs) - 1; i >= 0; i-- {
					saved := b.Instrs[i]
					b.RemoveAt(i)
					if reproduces(cur) {
						changed = true
					} else {
						b.InsertAt(i, saved)
					}
				}
			}
		}
	}
	d.Source = cur
	return cur
}

// ModelSlug returns the predsim -model flag value for a model.
func ModelSlug(m core.Model) string {
	switch m {
	case core.Superblock:
		return "superblock"
	case core.CondMove:
		return "cmov"
	case core.FullPred:
		return "full"
	case core.GuardInstr:
		return "guard"
	}
	return "unknown"
}

// WriteRepro writes the divergence's source program as a self-contained
// .psasm artifact under dir and returns the file path.  The header
// comments record the oracle context; the body parses with asm.Parse and
// runs directly under predsim.
func WriteRepro(dir string, d *Divergence) (string, error) {
	shape := "flat"
	if d.Nested {
		shape = "nested"
	}
	name := fmt.Sprintf("seed%d_%s_%s.psasm", d.Seed, ModelSlug(d.Model), d.Kind)
	var hdr string
	hdr += "; predfuzz repro artifact — cross-model divergence\n"
	hdr += fmt.Sprintf("; seed: %d (%s program shape)\n", d.Seed, shape)
	hdr += fmt.Sprintf("; model: %v\n", d.Model)
	hdr += fmt.Sprintf("; kind: %s\n", d.Kind)
	hdr += fmt.Sprintf("; detail: %s\n", d.Detail)
	hdr += fmt.Sprintf("; reproduce: predsim -file %s -model %s\n", name, ModelSlug(d.Model))
	hdr += fmt.Sprintf("; (the checksum word is mem[%d]; compare it across -model values)\n", progen.CheckAddr)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("difftest: creating repro dir: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(hdr+asm.Format(d.Source)), 0o644); err != nil {
		return "", fmt.Errorf("difftest: writing repro: %w", err)
	}
	return path, nil
}
