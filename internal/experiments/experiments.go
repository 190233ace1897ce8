// Package experiments reproduces the paper's evaluation (§4): it compiles
// every benchmark kernel under the three processor models, runs
// emulation-driven simulation for each machine configuration, and renders
// the paper's figures and tables.
//
// Speedup follows the paper's definition: the cycle count of the 1-issue
// baseline (superblock) processor divided by the cycle count of the k-issue
// processor of the specified model.  For the real-cache experiment
// (Figure 11) the 1-issue baseline also uses real caches.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
)

// Models lists the three processor models in reporting order.
var Models = []core.Model{core.Superblock, core.CondMove, core.FullPred}

// Key identifies one (model, machine) measurement.
type Key struct {
	Model  core.Model
	Config string
}

// BenchResult holds every measurement for one benchmark.
type BenchResult struct {
	Name  string
	Stats map[Key]sim.Stats
	// Checksum sanity: identical across all runs.
	Checksum int64
	// Accounts holds the per-cell stall-cycle breakdown and instruction
	// mix when the suite ran with Options.Observe; nil otherwise.  Every
	// account is Verify-checked against its cell's Stats (MeasureAll).
	Accounts map[Key]*obs.CycleAccount
	// Pipelines holds each listing's stage trace when Options.Observe is
	// set, keyed by model and *scheduling target* name (simulator
	// configurations sharing scheduled code share the compile).  Every
	// trace lists all the stages its listing went through; formation
	// records also reported by another cell of the model family are
	// marked Shared (see obs.PipelineTrace.Inherit).
	Pipelines map[Key]*obs.PipelineTrace
}

// Stat returns the stats for one model/config pair (the zero value for a
// failed cell; see Has).
func (r *BenchResult) Stat(m core.Model, cfg string) sim.Stats {
	return r.Stats[Key{m, cfg}]
}

// Has reports whether the model/config cell was measured.  A cell missing
// from an otherwise complete row failed (panic, trap, timeout, or
// checksum mismatch) and renders as a tagged gap in the tables.
func (r *BenchResult) Has(m core.Model, cfg string) bool {
	_, ok := r.Stats[Key{m, cfg}]
	return ok
}

// Suite is the complete set of measurements.
type Suite struct {
	Results []*BenchResult
	// Errors collects every failed matrix cell in deterministic reporting
	// order (empty for a clean run).  The failing cells are tagged gaps
	// in the tables; see ErrorReport.
	Errors []*CellError
	// Steps totals the dynamic instructions emulated by the measured runs
	// (each kernel's reference run plus one emulation per matrix cell;
	// profiling runs inside Compile are excluded); figures -stats-json
	// reports it.
	Steps int64
}

// Options configures a suite run.
type Options struct {
	// Kernels restricts the run to the named kernels (nil = all).
	Kernels []string
	// Progress, when non-nil, receives one line per completed benchmark.
	// It may be called from worker goroutines, but never concurrently.
	Progress func(string)
	// Parallel bounds the worker pool the suite's jobs fan out across —
	// per kernel, the reference run and one job per model family: 0
	// means runtime.GOMAXPROCS(0), 1 forces the sequential path.
	Parallel int
	// FailFast restores first-error cancellation: the lowest-indexed
	// failing cell aborts the run and Run returns its error.  The default
	// is fault isolation — a panicking, trapping, or timed-out cell
	// becomes a CellError in Suite.Errors and a tagged gap in the tables
	// while every sibling cell completes.
	FailFast bool
	// CellTimeout bounds each step of a family job separately (0 =
	// unbounded): the family's formation, the derivation of its
	// conditional-move form, and each cell's scheduling, emulation and
	// simulation.  An exceeded budget is a TimeoutError for the cells the
	// step served: the one cell, or every cell of the family (or of the
	// derived model) whose formation overran.
	CellTimeout time.Duration
	// Observe attaches the observability layer to every matrix cell: each
	// simulated configuration gets a cycle account (BenchResult.Accounts)
	// and each compile a stage trace (BenchResult.Pipelines).  Every
	// account is verified against its cell's Stats; a decomposition
	// violation is a CellError like any other cell fault.
	Observe bool
	// Registry, when non-nil, receives suite-level counters (cells_ok,
	// cells_failed, steps_total) and a per-cell dynamic-step histogram
	// (cell_steps).  See obs.Registry for the JSON schema.
	Registry *obs.Registry
	// Predictors selects the branch predictors the matrix crosses with
	// (nil = {"btb"}, the paper's machine).  The first listed predictor
	// keeps the bare configuration names, so the default matrix is
	// unchanged; each additional predictor re-measures every machine
	// configuration under a suffixed name ("issue8-br1+gshare").  See
	// predictors.go.
	Predictors []string
	// Windows selects the instruction-window sizes the matrix crosses
	// with (nil = {0}, the paper's in-order machines).  0 is the in-order
	// model; a positive value runs every machine configuration on the
	// out-of-order issue-window scheduler with that many window entries,
	// under a suffixed name ("issue8-br1+ooo32").  The first listed
	// window keeps the bare configuration names.  See windows.go.
	Windows []int
}

// schedTargets are the machine configurations code is scheduled for.  The
// cache variant shares the 8-issue 1-branch code: caches change timing, not
// compilation.
var schedTargets = []machine.Config{
	machine.Issue1(),
	machine.Issue4Br1(),
	machine.Issue8Br1(),
	machine.Issue8Br2(),
}

// SimsFor returns the simulator configurations whose measurements share
// code scheduled for the given target: the sibling set one emulation
// prices, in each matrix cell of Run and in MeasureAll's callers.
func SimsFor(target machine.Config) []machine.Config {
	switch target.Name {
	case "issue1":
		return []machine.Config{machine.Issue1(), machine.Issue1Cache()}
	case "issue8-br1":
		return []machine.Config{machine.Issue8Br1(), machine.Issue8Br1Cache()}
	default:
		return []machine.Config{target}
	}
}

// cellSpec is one (model, sched-target) point of the evaluation matrix.
type cellSpec struct {
	model  core.Model
	target machine.Config
}

// matrixCells enumerates the matrix points measured for every kernel, in
// reporting order.
func matrixCells() []cellSpec {
	var cells []cellSpec
	for _, model := range Models {
		for _, target := range schedTargets {
			if target.Name == "issue1" && model != core.Superblock {
				continue // the 1-issue baseline is always superblock code
			}
			cells = append(cells, cellSpec{model, target})
		}
	}
	return cells
}

// family is one job's share of a kernel's matrix: consecutive cells (in
// reporting order) whose code comes from one formed program, the form of
// their models' core.Model.Family.
type family struct {
	base  core.Model
	cells []int // indices into matrixCells
}

// families groups the matrix cells into family jobs.
func families(cells []cellSpec) []family {
	var fams []family
	for ci, c := range cells {
		base := c.model.Family()
		if n := len(fams); n > 0 && fams[n-1].base == base {
			fams[n-1].cells = append(fams[n-1].cells, ci)
			continue
		}
		fams = append(fams, family{base, []int{ci}})
	}
	return fams
}

// cellResult is one matrix point's measurements, parallel to
// simConfigs(target, ...): every simulator configuration sharing the
// cell's scheduled code, from one emulation, so they share its checksum
// (validated against the reference run at merge) and step count.
type cellResult struct {
	ms       []*Measurement
	pipeline *obs.PipelineTrace // only under Options.Observe
}

// cellOpts is the per-job slice of Options (predictors already
// normalized).
type cellOpts struct {
	observe    bool
	predictors []string
	windows    []int
	timeout    time.Duration
	failFast   bool
}

// formed is a formed program and, when observing, the trace of the
// formation stages every listing scheduled from it continues.
type formed struct {
	f     *core.Formed
	trace *obs.PipelineTrace
}

// newTrace starts a pipeline trace continuing from's stages, or returns
// nil when the run is not observed.
func newTrace(o cellOpts, from *obs.PipelineTrace) *obs.PipelineTrace {
	if !o.observe {
		return nil
	}
	t := obs.NewPipelineTrace()
	if from != nil {
		t.Inherit(from)
	}
	return t
}

// runFamily is one family job of Run.  It forms the kernel once for the
// family and then measures each of the family's cells from that formed
// program scheduled for the cell's target; the conditional-move cells
// use the form core.Formed.Derive converts from the fully predicated
// one.  Formation, derivation and every cell run under the cell fault
// guard, each with its own CellTimeout budget, and a failed formation or
// derivation fails every cell that needed it.  Results and errors are in
// the family's reporting order; under failFast the job skips the cells
// after its first failing one in that order.
func runFamily(kernel string, src *ir.Program, cells []cellSpec, fam family, o cellOpts) ([]*cellResult, []error) {
	res := make([]*cellResult, len(fam.cells))
	errs := make([]error, len(fam.cells))
	// Formation never reads the machine; a zero configuration says so.
	fopts := core.DefaultOptions(machine.Config{})
	fopts.Pipeline = newTrace(o, nil)
	base, err := Guard(o.timeout, func() (*formed, error) {
		f, err := core.Form(src, fam.base, fopts)
		return &formed{f, fopts.Pipeline}, err
	})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return res, errs
	}

	// The cells scheduling the base form's own program run first and the
	// conditional-move cells last, so the base form is dropped once its
	// conditional-move form is derived: a job holds at most two formed
	// programs besides the listing it measures.
	converted := func(i int) bool { return cells[fam.cells[i]].model == core.CondMove }
	run := inOrder(len(fam.cells))
	sort.SliceStable(run, func(a, b int) bool { return !converted(run[a]) && converted(run[b]) })
	failed := len(run) // the first failing cell in reporting order
	model, cur, curErr := fam.base, base, error(nil)
	for _, i := range run {
		if o.failFast && i > failed {
			continue
		}
		cell := cells[fam.cells[i]]
		if cell.model != model {
			// A timed-out step's goroutine outlives its turn, so every
			// closure gets its inputs by value, never the loop's variables.
			b, dopts := base, fopts
			dopts.Pipeline = newTrace(o, b.trace)
			model = cell.model
			cur, curErr = Guard(o.timeout, func() (*formed, error) {
				f, err := b.f.Derive(cell.model, dopts)
				return &formed{f, dopts.Pipeline}, err
			})
			if model == core.CondMove {
				base = nil
			}
		}
		if curErr != nil {
			errs[i] = curErr
		} else {
			f, pipe := cur.f, newTrace(o, cur.trace)
			res[i], errs[i] = Guard(o.timeout, func() (*cellResult, error) {
				return measureCell(kernel, f, pipe, cell, o)
			})
		}
		if errs[i] != nil {
			failed = min(failed, i)
		}
	}
	return res, errs
}

// measureCell schedules the formed program for the cell's target
// (ScheduleCell) and measures every simulator configuration sharing the
// scheduled code in one emulation (CellArtifact.MeasureAll) — the
// schedule-once / emulate-once / simulate-many core of the harness, and
// the same two steps the serving daemon takes.  Under Options.Observe
// every configuration's cycle account is verified against its Stats, and
// a violation fails the cell like any other fault.
func measureCell(kernel string, f *core.Formed, pipe *obs.PipelineTrace, cell cellSpec, o cellOpts) (*cellResult, error) {
	if CellHook != nil {
		CellHook(kernel, cell.model, cell.target.Name)
	}
	copts := core.DefaultOptions(cell.target)
	copts.Pipeline = pipe
	art, err := ScheduleCell(kernel, f, cell.target, copts)
	if err != nil {
		return nil, err
	}
	ms, err := art.MeasureAll(simConfigs(cell.target, o.predictors, o.windows), o.observe)
	if err != nil {
		return nil, err
	}
	return &cellResult{ms, pipe}, nil
}

// Run executes the full evaluation.  Each kernel is built once; its
// uncompiled reference run and one job per model family (see runFamily)
// fan out across a worker pool of Options.Parallel goroutines, the
// largest programs' jobs claimed first, and results merge in
// deterministic reporting order regardless of completion order.
//
// Fault isolation is the default: every cell runs behind a panic guard
// and the optional Options.CellTimeout, and a failing cell — compile
// error, trap, panic, timeout, or checksum mismatch — becomes a CellError
// in Suite.Errors plus a tagged gap in the tables while its siblings
// complete.  Options.FailFast restores the old first-error cancellation,
// where the failing cell first in reporting order aborts the run.
func Run(opts Options) (*Suite, error) {
	predictors, err := normalizePredictors(opts.Predictors)
	if err != nil {
		return nil, err
	}
	windows, err := normalizeWindows(opts.Windows)
	if err != nil {
		return nil, err
	}
	co := cellOpts{observe: opts.Observe, predictors: predictors, windows: windows,
		timeout: opts.CellTimeout, failFast: opts.FailFast}
	kernels := bench.All()
	if opts.Kernels != nil {
		named := make([]*bench.Kernel, 0, len(opts.Kernels))
		for _, name := range opts.Kernels {
			k, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			named = append(named, k)
		}
		kernels = named
	}
	cells := matrixCells()
	fams := families(cells)

	// One build per kernel: the reference run and the family jobs all read
	// this program (core.Form clones it).
	progs := make([]*ir.Program, len(kernels))
	buildErr := make([]error, len(kernels))
	size := make([]int, len(kernels)) // static instructions
	for ki, k := range kernels {
		progs[ki], buildErr[ki] = Guard(0, func() (*ir.Program, error) { return k.Build(), nil })
		if buildErr[ki] == nil {
			size[ki] = progs[ki].NumInstrs()
		}
	}

	// Jobs: per kernel, the reference run and then one job per family, so
	// job order is reporting order.  Results land in per-kernel slots:
	// the reference's, then one per matrix cell.
	jobs := 1 + len(fams)
	stride := 1 + len(cells)
	refs := make([]*Measurement, len(kernels)) // nil: the reference run failed
	cellRes := make([]*cellResult, len(kernels)*stride)
	cellErr := make([]*CellError, len(kernels)*stride)

	// Claim the largest programs' jobs first: their formations are the
	// longest, and started last they would trail the pass.
	order := inOrder(len(kernels) * jobs)
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]/jobs] > size[order[b]/jobs] })

	remaining := make([]int32, len(kernels)) // per-kernel jobs outstanding
	for i := range remaining {
		remaining[i] = int32(jobs)
	}
	nConfigs := 0
	for _, cell := range cells {
		nConfigs += len(simConfigs(cell.target, predictors, windows))
	}
	var progressMu sync.Mutex

	err = runJobs(order, opts.Parallel, func(j int) error {
		ki := j / jobs
		k, src := kernels[ki], progs[ki]
		var first *CellError
		fail := func(slot int, ce *CellError) {
			if first == nil {
				first = ce
			}
			cellErr[ki*stride+slot] = ce
		}
		if j%jobs == 0 {
			ref, err := Guard(opts.CellTimeout, func() (*Measurement, error) {
				if buildErr[ki] != nil {
					return nil, buildErr[ki]
				}
				r, err := emu.Run(src, emu.Options{})
				if err != nil {
					return nil, err
				}
				return &Measurement{Checksum: r.Word(bench.CheckAddr), Steps: r.Steps}, nil
			})
			if err != nil {
				fail(0, &CellError{Kernel: k.Name, Ref: true, Err: err})
			} else {
				refs[ki] = ref
			}
		} else if buildErr[ki] == nil { // else the reference reports the kernel
			fam := fams[j%jobs-1]
			res, errs := runFamily(k.Name, src, cells, fam, co)
			for i, ci := range fam.cells {
				if errs[i] != nil {
					fail(1+ci, &CellError{Kernel: k.Name, Model: cells[ci].model, Target: cells[ci].target.Name, Err: errs[i]})
				} else {
					cellRes[ki*stride+1+ci] = res[i]
				}
			}
		}
		if first != nil && opts.FailFast {
			return first
		}
		if atomic.AddInt32(&remaining[ki], -1) == 0 {
			progs[ki] = nil // the kernel's last job is done with its program
			if opts.Progress != nil {
				progressMu.Lock()
				opts.Progress(fmt.Sprintf("%-14s done (%d configurations)", k.Name, nConfigs))
				progressMu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: kernels in suite order, cells in reporting
	// order; checksums validated against each kernel's reference run.  A
	// failed reference drops the whole kernel row (nothing to validate
	// against); a failed or mismatching cell drops only that cell.
	suite := &Suite{}
	for ki, k := range kernels {
		res := &BenchResult{Name: k.Name, Stats: map[Key]sim.Stats{}}
		if opts.Observe {
			res.Accounts = map[Key]*obs.CycleAccount{}
			res.Pipelines = map[Key]*obs.PipelineTrace{}
		}
		for j := 0; j < stride; j++ {
			if ce := cellErr[ki*stride+j]; ce != nil {
				suite.Errors = append(suite.Errors, ce)
			}
		}
		if ref := refs[ki]; ref != nil {
			res.Checksum = ref.Checksum
			suite.Steps += ref.Steps
			for ci, cell := range cells {
				cr := cellRes[ki*stride+1+ci]
				if cr == nil {
					continue // failed cell: the error is already collected
				}
				suite.Steps += cr.ms[0].Steps
				if sum := cr.ms[0].Checksum; sum != res.Checksum {
					ce := &CellError{Kernel: k.Name, Model: cell.model, Target: cell.target.Name,
						Err: fmt.Errorf("checksum mismatch %#x != %#x", sum, res.Checksum)}
					if opts.FailFast {
						return nil, ce
					}
					suite.Errors = append(suite.Errors, ce)
					continue
				}
				for si, sc := range simConfigs(cell.target, predictors, windows) {
					m := cr.ms[si]
					res.Stats[Key{cell.model, sc.Name}] = m.Stats
					if m.Account != nil {
						res.Accounts[Key{cell.model, sc.Name}] = m.Account
					}
				}
				if cr.pipeline != nil {
					res.Pipelines[Key{cell.model, cell.target.Name}] = cr.pipeline
				}
			}
		}
		suite.Results = append(suite.Results, res)
	}
	if opts.Registry != nil {
		ok, failed := 0, len(suite.Errors)
		for _, r := range suite.Results {
			ok += len(r.Stats)
		}
		opts.Registry.Counter("cells_ok").Add(int64(ok))
		opts.Registry.Counter("cells_failed").Add(int64(failed))
		opts.Registry.Counter("steps_total").Add(suite.Steps)
		h := opts.Registry.Histogram("cell_steps", []float64{1e3, 1e4, 1e5, 1e6})
		for _, cr := range cellRes {
			if cr != nil {
				h.Observe(float64(cr.ms[0].Steps))
			}
		}
	}
	return suite, nil
}

// speedupBase names the 1-issue baseline configuration whose cycle count
// the paper divides by: the cache variant matching the configuration.
func speedupBase(cfg string) string {
	if cfg == "issue8-br1-64k" {
		return "issue1-64k"
	}
	return "issue1"
}

// Speedup computes the paper's speedup metric for one benchmark: cycles of
// the superblock 1-issue baseline divided by cycles of the model on the
// named configuration.  It returns 0 when either cell is a gap (see
// HasSpeedup).
func (r *BenchResult) Speedup(m core.Model, cfg string) float64 {
	b := r.Stat(core.Superblock, speedupBase(cfg)).Cycles
	c := r.Stat(m, cfg).Cycles
	if c == 0 {
		return 0
	}
	return float64(b) / float64(c)
}

// HasSpeedup reports whether both cells of the speedup ratio were
// measured.
func (r *BenchResult) HasSpeedup(m core.Model, cfg string) bool {
	return r.Has(core.Superblock, speedupBase(cfg)) && r.Has(m, cfg)
}

// MeanSpeedup averages the speedup metric across the suite's benchmarks,
// excluding gaps (0 when every benchmark is a gap) — the figures' mean
// row.
func (s *Suite) MeanSpeedup(m core.Model, cfg string) float64 {
	sum, n := 0.0, 0
	for _, r := range s.Results {
		if !r.HasSpeedup(m, cfg) {
			continue
		}
		sum += r.Speedup(m, cfg)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanInstrRatio averages each model's dynamic instruction count relative
// to the superblock model on the 8-issue 1-branch configuration (Table 2's
// mean ratio), excluding gaps (0 when every benchmark is a gap).
func (s *Suite) MeanInstrRatio(m core.Model) float64 {
	sum, n := 0.0, 0
	for _, r := range s.Results {
		if !r.Has(core.Superblock, "issue8-br1") || !r.Has(m, "issue8-br1") {
			continue
		}
		base := r.Stat(core.Superblock, "issue8-br1").Instrs
		sum += float64(r.Stat(m, "issue8-br1").Instrs) / float64(base)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
