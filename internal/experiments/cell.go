package experiments

import (
	"errors"
	"fmt"
	"strings"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
)

// This file is the exported per-cell surface of the harness: the serving
// daemon (internal/serve) computes single (kernel, model, machine) cells
// on demand and caches the compiled artifacts content-addressed, so a
// cell's compile (core.Form, then ScheduleCell for one target) and its
// measurement (MeasureAll) are exposed as reusable steps.  Run measures
// every matrix cell through the same two steps, from a formation shared
// per model family, which pins the served numbers to the ones the
// figures report.

// SchedTarget maps a simulator configuration to the machine its code is
// scheduled for.  The cache variants share the perfect-cache schedules
// (caches change timing, not compilation — see schedTargets/SimsFor),
// and predictor variants ("issue8-br1+gshare") schedule like their base
// machine: the predictor is a front-end structure the scheduler never
// sees.
func SchedTarget(cfg machine.Config) machine.Config {
	if i := strings.IndexByte(cfg.Name, '+'); i >= 0 {
		if base, err := machine.ByName(cfg.Name[:i]); err == nil {
			cfg = base
		}
	}
	switch cfg.Name {
	case "issue1-64k":
		return machine.Issue1()
	case "issue8-br1-64k":
		return machine.Issue8Br1()
	default:
		return cfg
	}
}

// CellArtifact is one compiled matrix cell: the kernel compiled under the
// model for a scheduling target, plus its pre-decoded emulation code.
// Artifacts are immutable after CompileCell (runs never mutate them), so
// one artifact can be shared by concurrent measurements and cached
// across requests — the unit of the serving daemon's content-addressed
// compiled-artifact cache.
type CellArtifact struct {
	Kernel   string
	Model    core.Model
	Target   machine.Config
	Compiled *core.Compiled
	Code     *emu.Code
	// MaxSteps, when positive, bounds every Measure/MeasureAll emulation
	// of this artifact (0 keeps the emulator's default cap).  The
	// submission path sets it so an untrusted program cannot run longer
	// than its step quota.
	MaxSteps int64
}

// CompileCell compiles the named kernel under the model for the
// scheduling target of cfg on the standard pipeline (core.DefaultOptions)
// and pre-decodes the result for the fast emulator.
func CompileCell(kernel string, model core.Model, cfg machine.Config) (*CellArtifact, error) {
	k, err := bench.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return CompileProgram(kernel, k.Build(), model, cfg, core.DefaultOptions(SchedTarget(cfg)))
}

// CompileProgram is CompileCell for an arbitrary source program — the
// entry point for user-submitted code, where the program comes from a
// parsed listing rather than a kernel generator and the caller supplies
// the pipeline options (per-stage verification on, bounded profiling run).
// name labels the artifact and its errors; cfg picks the scheduling
// target exactly as CompileCell does.  The source program is never
// modified (core.Form clones it).
func CompileProgram(name string, src *ir.Program, model core.Model, cfg machine.Config, opts core.Options) (*CellArtifact, error) {
	f, err := core.Form(src, model, opts)
	var art *CellArtifact
	if err == nil {
		art, err = ScheduleCell(name, f, cfg, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %v @ %s: %w", name, model, SchedTarget(cfg).Name, err)
	}
	return art, nil
}

// ScheduleCell is the per-target half of CompileProgram: it schedules a
// formed program for the scheduling target of cfg (core.Formed.Schedule
// with opts.Machine set to it) and pre-decodes the listing.  Run builds
// every matrix cell this way, and the serving daemon's formed-program
// layer every artifact of a model family.  name labels the artifact; the
// errors carry no coordinates, since every caller already names the cell
// (CellError, CompileProgram, the daemon's responses).
func ScheduleCell(name string, f *core.Formed, cfg machine.Config, opts core.Options) (*CellArtifact, error) {
	target := SchedTarget(cfg)
	opts.Machine = target
	c, err := f.Schedule(opts)
	if err != nil {
		return nil, err
	}
	code, err := emu.Decode(c.Prog)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &CellArtifact{Kernel: name, Model: f.Model, Target: target, Compiled: c, Code: code}, nil
}

// Measurement is one simulated cell: the timing statistics of a single
// emulation of the artifact streamed into a simulator for one machine
// configuration, plus the run's checksum and dynamic instruction count.
// Account is non-nil only for observed measurements and is already
// Verify-checked against Stats.
type Measurement struct {
	Stats    sim.Stats
	Checksum int64
	Steps    int64
	Account  *obs.CycleAccount
}

// checksumOf reads the conventional checksum word.  Kernels always
// allocate it, but a submitted program may declare a memory too small to
// hold one — that is a zero checksum, not an out-of-range panic.
func checksumOf(run *emu.Result) int64 {
	if bench.CheckAddr < int64(len(run.Mem)) {
		return run.Word(bench.CheckAddr)
	}
	return 0
}

// MeasureAll emulates the artifact once and measures every given
// machine configuration in that single pass through a sim.Gang, one
// lane per configuration.  The returned measurements parallel cfgs and
// share the run's checksum and step count (there was exactly one
// emulation).  With observe set every lane carries its own cycle
// account, each verified against that lane's stats.  A configuration
// need not schedule-target the artifact's Target (see SchedTarget):
// measuring on a mismatched machine is the ablation of running code
// scheduled for one machine on another, so no check is enforced.  Run
// measures every matrix cell this way, and the serving daemon fills all
// sibling cache entries of a cell from one emulation.  As with
// ScheduleCell, the errors leave naming the cell to the caller.
func (a *CellArtifact) MeasureAll(cfgs []machine.Config, observe bool) ([]*Measurement, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("MeasureAll needs at least one configuration")
	}
	g := sim.NewGang(a.Compiled.Prog, cfgs)
	var accts []*obs.CycleAccount
	if observe {
		accts = make([]*obs.CycleAccount, len(cfgs))
		for i := range cfgs {
			accts[i] = &obs.CycleAccount{}
			g.Instrument(i, accts[i])
		}
	}
	run, err := a.Code.Run(emu.Options{Sink: g, MaxSteps: a.MaxSteps})
	if err != nil {
		return nil, fmt.Errorf("emulate: %w", err)
	}
	ms := make([]*Measurement, len(cfgs))
	for i, cfg := range cfgs {
		st := g.Stats(i)
		m := &Measurement{Stats: st, Checksum: checksumOf(run), Steps: run.Steps}
		if observe {
			if err := accts[i].Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
				return nil, fmt.Errorf("%s: cycle accounting: %w", cfg.Name, err)
			}
			m.Account = accts[i]
		}
		ms[i] = m
	}
	return ms, nil
}
