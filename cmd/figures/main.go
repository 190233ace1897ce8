// Command figures regenerates every figure and table of the paper's
// evaluation section (Figures 8-11, Tables 2-3) on the benchmark kernels.
//
// Usage:
//
//	figures [-bench name,name,...] [-kernels name,name,...] [-parallel N]
//	        [-markdown | -csv] [-ext] [-predictor btb,gshare]
//	        [-window 0,32]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"predication/internal/experiments"
	"predication/internal/obs"
	"predication/internal/sim"
)

func main() {
	if err := safeRun(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// safeRun converts a panic anywhere in the harness into an ordinary
// one-line error, so the command never dies with a stack trace.
func safeRun(args []string, out, errw io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	return run(args, out, errw)
}

// parseWindows parses the -window flag's comma-separated list of
// instruction-window sizes (validation proper happens in the
// experiments package).
func parseWindows(s string) ([]int, error) {
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-window %q: %q is not an integer", s, f)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// run parses args, executes the experiment suite, and writes the selected
// rendering of every table to out (progress lines go to errw).
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(errw)
	benchList := fs.String("bench", "", "comma-separated kernel names (default: all)")
	kernelList := fs.String("kernels", "", "comma-separated kernel names (alias of -bench)")
	parallel := fs.Int("parallel", 0, "worker pool size for the benchmark matrix (0 = GOMAXPROCS, 1 = sequential)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	csv := fs.Bool("csv", false, "emit comma-separated values")
	ext := fs.Bool("ext", false, "also run the extension experiments (penalty sweep, predicate distance, register pressure, finite register files)")
	breakdown := fs.Bool("breakdown", false, "also render the stall-cycle breakdown and IPC tables (8-issue 1-branch)")
	statsJSON := fs.String("stats-json", "", "write the whole suite (stats, breakdowns, pipelines, registry) as JSON to this file (- for stdout)")
	failfast := fs.Bool("failfast", false, "abort the whole run on the first failing matrix cell (default: failed cells become tagged gaps)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell time budget, e.g. 30s (0 = unbounded)")
	predictor := fs.String("predictor", "", "comma-separated branch predictors to cross the matrix with (btb, gshare; default btb)")
	window := fs.String("window", "", "comma-separated instruction-window sizes to cross the matrix with (0 = in-order; default 0)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: worker count cannot be negative", *parallel)
	}
	if *cellTimeout < 0 {
		return fmt.Errorf("-cell-timeout %v: time budget cannot be negative (0 = unbounded)", *cellTimeout)
	}
	if *benchList != "" && *kernelList != "" && *benchList != *kernelList {
		return fmt.Errorf("-bench and -kernels both given with different kernel lists")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	opts := experiments.Options{
		Parallel:    *parallel,
		Progress:    func(s string) { fmt.Fprintln(errw, s) },
		FailFast:    *failfast,
		CellTimeout: *cellTimeout,
		Observe:     *breakdown || *statsJSON != "",
	}
	if *predictor != "" {
		opts.Predictors = strings.Split(*predictor, ",")
	}
	if *window != "" {
		ws, err := parseWindows(*window)
		if err != nil {
			return err
		}
		opts.Windows = ws
	}
	// Fail on a bad predictor or window list before the suite spins up.
	configNames, err := experiments.SimConfigNames(opts.Predictors, opts.Windows)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if opts.Observe {
		reg = obs.NewRegistry()
		opts.Registry = reg
	}
	if *benchList != "" {
		opts.Kernels = strings.Split(*benchList, ",")
	} else if *kernelList != "" {
		opts.Kernels = strings.Split(*kernelList, ",")
	}
	suite, err := experiments.Run(opts)
	if err != nil {
		return err
	}
	if *statsJSON != "" {
		if err := writeSuiteJSON(*statsJSON, out, suite, reg, configNames); err != nil {
			return err
		}
		if *statsJSON == "-" {
			// The JSON document owns stdout; only the exit status remains.
			if len(suite.Errors) > 0 {
				fmt.Fprint(errw, suite.ErrorReport())
				return fmt.Errorf("%d matrix cell(s) failed", len(suite.Errors))
			}
			return nil
		}
	}
	tables := suite.AllTables()
	if *breakdown {
		tables = append(tables, suite.BreakdownTable("issue8-br1"), suite.IPCTable("issue8-br1"))
	}
	if *ext {
		extra, err := experiments.Extensions()
		if err != nil {
			return err
		}
		tables = append(tables, extra...)
	}
	for _, t := range tables {
		switch {
		case *csv:
			fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
		case *markdown:
			fmt.Fprintln(out, markdownTable(t))
		default:
			fmt.Fprintln(out, t.String())
		}
	}
	// Tables with gaps still render above; the failures decide the exit
	// status so CI and scripts notice the incomplete matrix.
	if len(suite.Errors) > 0 {
		fmt.Fprint(errw, suite.ErrorReport())
		return fmt.Errorf("%d matrix cell(s) failed; gaps are tagged %q in the tables", len(suite.Errors), "n/a")
	}
	return nil
}

// suiteJSON is the figures -stats-json schema: one record per measured
// (benchmark, model, config) cell plus the suite-level registry snapshot
// (documented in docs/OBSERVABILITY.md; keep the two in sync).
type suiteJSON struct {
	Cells    []cellJSON    `json:"cells"`
	Steps    int64         `json:"steps"`
	Errors   []string      `json:"errors"`
	Registry *obs.Registry `json:"registry,omitempty"`
}

type cellJSON struct {
	Benchmark string             `json:"benchmark"`
	Model     string             `json:"model"`
	Config    string             `json:"config"`
	Stats     sim.Stats          `json:"stats"`
	IPC       float64            `json:"ipc"`
	UsefulIPC float64            `json:"useful_ipc"`
	Breakdown *obs.Breakdown     `json:"breakdown,omitempty"`
	Mix       []obs.MixEntry     `json:"mix,omitempty"`
	Pipeline  *obs.PipelineTrace `json:"pipeline,omitempty"`
}

func writeSuiteJSON(path string, out io.Writer, suite *experiments.Suite, reg *obs.Registry, configNames []string) error {
	doc := suiteJSON{Steps: suite.Steps, Errors: []string{}, Registry: reg}
	for _, r := range suite.Results {
		for _, m := range experiments.Models {
			for _, cfg := range configNames {
				if !r.Has(m, cfg) {
					continue
				}
				st := r.Stat(m, cfg)
				c := cellJSON{
					Benchmark: r.Name,
					Model:     m.String(),
					Config:    cfg,
					Stats:     st,
					IPC:       st.IPC(),
					UsefulIPC: st.UsefulIPC(),
				}
				if a, ok := r.Accounts[experiments.Key{Model: m, Config: cfg}]; ok {
					c.Breakdown = &a.Breakdown
					c.Mix = a.Mix()
				}
				if pt, ok := r.Pipelines[experiments.Key{Model: m, Config: cfg}]; ok {
					c.Pipeline = pt
				}
				doc.Cells = append(doc.Cells, c)
			}
		}
	}
	for _, e := range suite.Errors {
		doc.Errors = append(doc.Errors, e.Error())
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = out.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func markdownTable(t *experiments.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "| %s |\n", strings.Join(row, " | "))
	}
	return sb.String()
}
