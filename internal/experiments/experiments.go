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
	"sync"
	"sync/atomic"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
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
	// account is Verify-checked against its cell's Stats at merge time.
	Accounts map[Key]*obs.CycleAccount
	// Pipelines holds the per-compile stage trace when Options.Observe is
	// set, keyed by model and *scheduling target* name (simulator
	// configurations sharing scheduled code share the compile).
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
	// Parallel bounds the worker pool the kernel × model × target matrix
	// fans out across: 0 means runtime.GOMAXPROCS(0), 1 forces the
	// sequential path.
	Parallel int
	// FailFast restores first-error cancellation: the lowest-indexed
	// failing cell aborts the run and Run returns its error.  The default
	// is fault isolation — a panicking, trapping, or timed-out cell
	// becomes a CellError in Suite.Errors and a tagged gap in the tables
	// while every sibling cell completes.
	FailFast bool
	// CellTimeout bounds each matrix cell's compile+emulate+simulate work
	// (0 = unbounded).  An exceeded budget is a TimeoutError for that
	// cell only.
	CellTimeout time.Duration
	// Observe attaches the observability layer to every matrix cell: each
	// simulated configuration gets a cycle account (BenchResult.Accounts)
	// and each compile a stage trace (BenchResult.Pipelines).  The merge
	// verifies every account against its cell's Stats; a decomposition
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

// cellResult is one matrix point's measurements: the stats of every
// simulator configuration sharing the cell's scheduled code, plus the
// cell's own checksum (validated against the reference run at merge).
type cellResult struct {
	stats    []sim.Stats // parallel to simConfigs(target, ...)
	checksum int64
	steps    int64 // dynamic instructions in the cell's emulation
	// accounts and pipeline are populated only under Options.Observe
	// (accounts parallel to stats).
	accounts []*obs.CycleAccount
	pipeline *obs.PipelineTrace
}

// cellOpts is the per-cell slice of Options (predictors already
// normalized).
type cellOpts struct {
	observe    bool
	predictors []string
	windows    []int
}

// runCell compiles the kernel once for the cell's model and target,
// emulates the compiled program once, and measures every simulator
// configuration sharing the scheduled code in that single pass — the
// compile-once / emulate-once / simulate-many core of the harness.  The
// trace is never materialized: the emulator's batches stream into a
// sim.Gang, one lane per configuration.
func runCell(k *bench.Kernel, cell cellSpec, o cellOpts) (*cellResult, error) {
	if CellHook != nil {
		CellHook(k.Name, cell.model, cell.target.Name)
	}
	copts := core.DefaultOptions(cell.target)
	var pipe *obs.PipelineTrace
	if o.observe {
		pipe = obs.NewPipelineTrace()
		copts.Pipeline = pipe
	}
	c, err := core.Compile(k.Build(), cell.model, copts)
	if err != nil {
		return nil, fmt.Errorf("%v @ %s: %w", cell.model, cell.target.Name, err)
	}
	cfgs := simConfigs(cell.target, o.predictors, o.windows)
	g := sim.NewGang(c.Prog, cfgs)
	var accounts []*obs.CycleAccount
	if o.observe {
		accounts = make([]*obs.CycleAccount, len(cfgs))
		for i := range cfgs {
			accounts[i] = &obs.CycleAccount{}
			g.Instrument(i, accounts[i])
		}
	}
	run, err := emu.Run(c.Prog, emu.Options{Sink: g})
	if err != nil {
		return nil, fmt.Errorf("%v @ %s: emulate: %w", cell.model, cell.target.Name, err)
	}
	res := &cellResult{checksum: run.Word(bench.CheckAddr), steps: run.Steps,
		accounts: accounts, pipeline: pipe}
	for i := range cfgs {
		res.stats = append(res.stats, g.Stats(i))
	}
	return res, nil
}

// Run executes the full evaluation.  The kernel × model × target matrix —
// plus each kernel's uncompiled reference run — fans out across a worker
// pool of Options.Parallel goroutines; results merge in deterministic
// reporting order regardless of completion order.
//
// Fault isolation is the default: every cell runs behind a panic guard
// and the optional Options.CellTimeout, and a failing cell — compile
// error, trap, panic, timeout, or checksum mismatch — becomes a CellError
// in Suite.Errors plus a tagged gap in the tables while its siblings
// complete.  Options.FailFast restores the old first-error cancellation,
// where the lowest-indexed failing job aborts the run.
func Run(opts Options) (*Suite, error) {
	predictors, err := normalizePredictors(opts.Predictors)
	if err != nil {
		return nil, err
	}
	windows, err := normalizeWindows(opts.Windows)
	if err != nil {
		return nil, err
	}
	co := cellOpts{observe: opts.Observe, predictors: predictors, windows: windows}
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

	// Flatten to one job list: per kernel, the reference run followed by
	// every matrix cell.  Job index i maps to kernel i/stride.
	stride := 1 + len(cells)
	n := len(kernels) * stride
	refSums := make([]int64, len(kernels))
	refSteps := make([]int64, len(kernels))
	refOK := make([]bool, len(kernels))
	cellRes := make([]*cellResult, n)
	cellErr := make([]*CellError, n)

	remaining := make([]int32, len(kernels)) // per-kernel jobs outstanding
	for i := range remaining {
		remaining[i] = int32(stride)
	}
	nConfigs := 0
	for _, cell := range cells {
		nConfigs += len(simConfigs(cell.target, predictors, windows))
	}
	var progressMu sync.Mutex

	err = runJobs(n, opts.Parallel, func(i int) error {
		ki := i / stride
		k := kernels[ki]
		var ce *CellError
		if i%stride == 0 {
			ref, err := guardCell(opts.CellTimeout, func() (*cellResult, error) {
				r, err := emu.Run(k.Build(), emu.Options{})
				if err != nil {
					return nil, err
				}
				return &cellResult{checksum: r.Word(bench.CheckAddr), steps: r.Steps}, nil
			})
			if err != nil {
				ce = &CellError{Kernel: k.Name, Ref: true, Err: err}
			} else {
				refSums[ki] = ref.checksum
				refSteps[ki] = ref.steps
				refOK[ki] = true
			}
		} else {
			cell := cells[i%stride-1]
			cr, err := guardCell(opts.CellTimeout, func() (*cellResult, error) {
				return runCell(k, cell, co)
			})
			if err != nil {
				ce = &CellError{Kernel: k.Name, Model: cell.model, Target: cell.target.Name, Err: err}
			} else {
				cellRes[i] = cr
			}
		}
		if ce != nil {
			if opts.FailFast {
				return ce
			}
			cellErr[i] = ce
		}
		if opts.Progress != nil && atomic.AddInt32(&remaining[ki], -1) == 0 {
			progressMu.Lock()
			opts.Progress(fmt.Sprintf("%-14s done (%d configurations)", k.Name, nConfigs))
			progressMu.Unlock()
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
		if refOK[ki] {
			res.Checksum = refSums[ki]
			suite.Steps += refSteps[ki]
			for ci, cell := range cells {
				cr := cellRes[ki*stride+1+ci]
				if cr == nil {
					continue // failed cell: the error is already collected
				}
				suite.Steps += cr.steps
				if cr.checksum != res.Checksum {
					ce := &CellError{Kernel: k.Name, Model: cell.model, Target: cell.target.Name,
						Err: fmt.Errorf("checksum mismatch %#x != %#x", cr.checksum, res.Checksum)}
					if opts.FailFast {
						return nil, ce
					}
					suite.Errors = append(suite.Errors, ce)
					continue
				}
				// The decomposition invariant is checked at merge, where
				// the final Stats are in hand; a violation discredits the
				// whole cell, not just its breakdown.
				if cr.accounts != nil {
					var bad error
					for si := range cr.accounts {
						st := cr.stats[si]
						if err := cr.accounts[si].Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
							bad = err
							break
						}
					}
					if bad != nil {
						ce := &CellError{Kernel: k.Name, Model: cell.model, Target: cell.target.Name,
							Err: fmt.Errorf("cycle accounting: %w", bad)}
						if opts.FailFast {
							return nil, ce
						}
						suite.Errors = append(suite.Errors, ce)
						continue
					}
				}
				for si, sc := range simConfigs(cell.target, predictors, windows) {
					res.Stats[Key{cell.model, sc.Name}] = cr.stats[si]
					if cr.accounts != nil {
						res.Accounts[Key{cell.model, sc.Name}] = cr.accounts[si]
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
		for i, cr := range cellRes {
			if i%stride != 0 && cr != nil {
				h.Observe(float64(cr.steps))
			}
		}
	}
	return suite, nil
}

// RunBenchmark measures one kernel across all models and configurations,
// fanning its matrix cells out across the worker pool.
func RunBenchmark(k *bench.Kernel) (*BenchResult, error) {
	res := &BenchResult{Name: k.Name, Stats: map[Key]sim.Stats{}}
	cells := matrixCells()
	cellRes := make([]*cellResult, len(cells))

	err := runJobs(1+len(cells), 0, func(i int) error {
		if i == 0 {
			ref, err := emu.Run(k.Build(), emu.Options{})
			if err != nil {
				return fmt.Errorf("reference run: %w", err)
			}
			res.Checksum = ref.Word(bench.CheckAddr)
			return nil
		}
		cr, err := runCell(k, cells[i-1], cellOpts{predictors: Predictors[:1], windows: []int{0}})
		if err != nil {
			return err
		}
		cellRes[i-1] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}

	for ci, cell := range cells {
		cr := cellRes[ci]
		if cr.checksum != res.Checksum {
			return nil, fmt.Errorf("%v @ %s: checksum mismatch %#x != %#x",
				cell.model, cell.target.Name, cr.checksum, res.Checksum)
		}
		for si, sc := range SimsFor(cell.target) {
			res.Stats[Key{cell.model, sc.Name}] = cr.stats[si]
		}
	}
	return res, nil
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
// excluding gaps.
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
// summary statistic), excluding gaps.
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
