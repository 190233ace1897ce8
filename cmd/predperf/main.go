// Command predperf is the repository's benchmark: four workloads that run
// the paper suite, a design-space sweep and the serving daemon end to end
// through the public package APIs, check every simulated result against a
// golden file, and report end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs).  See README.md for the workloads, metrics and
// bounds, and BENCHMARK.json for their definitions.
//
// One workload in this process (the result is the last line of stdout):
//
//	predperf -workload paper_suite -seed 1 -seconds 15 -trace 0
//
// Every workload, each in its own child process, with a summary table,
// an optional run file, a traced pass and a comparison:
//
//	predperf -seed 1 -runs 5 -out run.json [-trace trace.json] [-compare base.json]
//	predperf -compare base.json -in run.json
//
// Regenerate the golden file from the current commit:
//
//	predperf -update-golden
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var workloadFuncs = map[string]func(*config) (*outcome, error){
	"paper_suite":  paperSuite,
	"design_sweep": designSweep,
	"serve_cold":   serveCold,
	"serve_warm":   serveWarm,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("predperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process; its result is the last line of stdout")
	seed := fs.Int64("seed", 1, "workload seed: the serve workloads' key order and arrival times")
	seconds := fs.Float64("seconds", 0, "measured window of each run (0 = run_seconds from BENCHMARK.json)")
	traceArg := fs.String("trace", "0", "0 = end-to-end metrics; 1 = a traced run reporting per-layer metrics; a file name = traced, and write a Chrome trace there")
	out := fs.String("out", "", "write the run file (every run's result) here")
	runs := fs.Int("runs", 1, "runs of each workload, alternating the workload order every round")
	compare := fs.String("compare", "", "compare the runs against this base run file; exit 1 on a regression")
	in := fs.String("in", "", "with -compare: the run file to compare instead of running")
	update := fs.Bool("update-golden", false, "regenerate testdata/golden_stats.txt from this commit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "predperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	sp, root, err := findSpec()
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 || *runs < 1 || (*in != "" && *compare == "") {
		fmt.Fprintln(stderr, "predperf: -seconds and -runs must be positive, and -in needs -compare")
		return 2
	}
	if *workload != "" && !sp.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "predperf: unknown workload %q\n", *workload)
		return 2
	}

	switch {
	case *update:
		return updateGolden(root, sp, stderr)
	case *workload != "":
		return runOne(sp, *workload, *seed, *seconds, *traceArg, stdout, stderr)
	case *in != "":
		return compareFiles(sp, *compare, *in, stdout, stderr)
	}
	rf, err := runAll(sp, *seed, *seconds, *runs, *traceArg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	printSummary(stdout, sp, rf)
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintf(stderr, "predperf: %v\n", err)
			return 1
		}
	}
	code := 0
	if rf.failed() > 0 {
		code = 1
	}
	if *compare != "" {
		base, err := readRunFile(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "predperf: %v\n", err)
			return 1
		}
		if !printCompare(stdout, sp, base, rf) {
			code = 1
		}
	}
	return code
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a workload in this process with the committed golden file.
func runOne(sp *spec, name string, seed int64, seconds float64, traceArg string, stdout, stderr io.Writer) int {
	g, err := parseGolden(goldenText)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	cfg := defaultConfig(seed, seconds)
	cfg.golden = g
	cfg.trace = traceArg != "0"
	traceFile := ""
	if cfg.trace && traceArg != "1" {
		traceFile = traceArg
	}
	return runWorkload(sp, name, cfg, traceFile, stdout, stderr)
}

// runWorkload runs one workload, prints one line per metric and then the
// result line, and returns the exit code: 1 when any operation failed.
func runWorkload(sp *spec, name string, cfg *config, traceFile string, stdout, stderr io.Writer) int {
	o, err := workloadFuncs[name](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %s: %v\n", name, err)
		return 1
	}
	defs := sp.EndToEnd
	if cfg.trace {
		defs = sp.PerLayer
	}
	res, err := report(stdout, defs, o)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %s: %v\n", name, err)
		return 1
	}
	if traceFile != "" {
		if err := writeTraceFile(traceFile, name, o); err != nil {
			fmt.Fprintf(stderr, "predperf: %v\n", err)
			return 1
		}
	}
	for _, e := range o.firstErrs {
		fmt.Fprintf(stderr, "predperf: %s: failed: %s\n", name, e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints one line per metric of defs — value, unit, sample count
// and bound — and returns the result line's content.  A metric the
// workload did not produce, or a non-finite one, is an error.
func report(w io.Writer, defs []metricDef, o *outcome) (*result, error) {
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if o.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", d.Name, v.Unit, d.Unit)
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-38s %14.6g %-6s n=%-7d bound=%s\n", d.Name, v.V, v.Unit, v.N, bound)
		res.Metrics[d.Name] = metricValue{v.V, v.Unit}
	}
	return res, nil
}

// writeTraceFile writes a traced run's spans as a Chrome trace, with the
// self time per span name and the tracing overhead in otherData.
func writeTraceFile(path, name string, o *outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ct := &chromeTrace{
		TraceEvents: chromeEvents(1, name, o.spans),
		OtherData:   map[string]any{"workload": name, "self_s": o.self, "overhead": o.overhead},
	}
	if err := writeChrome(f, ct); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFile is what -out writes and -compare reads: every run's result,
// plus each workload's traced run when -trace named a file.
type runFile struct {
	Seed    int64                    `json:"seed"`
	Seconds float64                  `json:"seconds"`
	Runs    []runRecord              `json:"runs"`
	Traced  map[string]*tracedRecord `json:"traced,omitempty"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

// tracedRecord is one workload's traced run: its per-layer metrics, the
// self time per span name (largest first in the summary) and the tracing
// overhead (traced ÷ untraced pass wall; 0 where not measured).
type tracedRecord struct {
	Layers   map[string]metricValue `json:"layers"`
	SelfS    map[string]float64     `json:"self_s"`
	Overhead float64                `json:"overhead"`
}

func (rf *runFile) failed() int64 {
	var n int64
	for _, r := range rf.Runs {
		n += r.Result.Failed
	}
	return n
}

// runAll runs every workload runs times, each run in its own child
// process, alternating the workload order every round; with a trace file
// it then runs each workload once traced and merges their traces.
func runAll(sp *spec, seed int64, seconds float64, runs int, traceArg string, stderr io.Writer) (*runFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rf := &runFile{Seed: seed, Seconds: seconds}
	for round := 0; round < runs; round++ {
		order := make([]string, len(sp.Workloads))
		for i, w := range sp.Workloads {
			order[i] = w.Name
		}
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			s := seed + int64(round)
			fmt.Fprintf(stderr, "predperf: %s seed %d\n", w, s)
			res, err := child(exe, stderr, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			rf.Runs = append(rf.Runs, runRecord{w, s, res})
		}
	}
	if traceArg == "0" || traceArg == "1" {
		return rf, nil
	}
	rf.Traced = map[string]*tracedRecord{}
	merged := &chromeTrace{}
	for pid, w := range sp.Workloads {
		tmp := traceArg + "." + w.Name
		fmt.Fprintf(stderr, "predperf: %s traced\n", w.Name)
		res, err := child(exe, stderr, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tmp)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		var ct struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
			OtherData   struct {
				SelfS    map[string]float64 `json:"self_s"`
				Overhead float64            `json:"overhead"`
			} `json:"otherData"`
		}
		data, err := os.ReadFile(tmp)
		os.Remove(tmp)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &ct); err != nil {
			return nil, fmt.Errorf("%s: %w", tmp, err)
		}
		for _, ev := range ct.TraceEvents {
			ev.Pid = pid + 1
			merged.TraceEvents = append(merged.TraceEvents, ev)
		}
		rf.Traced[w.Name] = &tracedRecord{res.Metrics, ct.OtherData.SelfS, ct.OtherData.Overhead}
	}
	f, err := os.Create(traceArg)
	if err != nil {
		return nil, err
	}
	if err := writeChrome(f, merged); err != nil {
		f.Close()
		return nil, err
	}
	return rf, f.Close()
}

// child runs this program with args and parses the last line of its
// standard output.  A run whose operations failed exits 1 but still
// yields its result.
func child(exe string, stderr io.Writer, args ...string) (*result, error) {
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line in the output")
	}
	return &res, nil
}

// samples collects one metric's values over a run file's runs of one
// workload, in run order.
func (rf *runFile) samples(workload, metric string) []float64 {
	var xs []float64
	for _, r := range rf.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// printSummary prints each (workload, end-to-end metric) with its median,
// quartiles, run count, unit and bound, then each traced workload's top
// self-time entries.
func printSummary(w io.Writer, sp *spec, rf *runFile) {
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %12s %5s %-5s %s\n", "workload", "metric", "median", "q1", "q3", "runs", "unit", "bound")
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			xs := rf.samples(wl.Name, d.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-13s %-18s %12.6g %12.6g %12.6g %5d %-5s %.0f%%\n", wl.Name, d.Name, median(xs), q1, q3, len(xs), d.Unit, d.Bound*100)
		}
		var att, failed int64
		for _, r := range rf.Runs {
			if r.Workload == wl.Name {
				att += r.Result.Attempted
				failed += r.Result.Failed
			}
		}
		fmt.Fprintf(w, "%-13s %-18s %12d of %d operations\n", wl.Name, "failed", failed, att)
	}
	for _, wl := range sp.Workloads {
		t := rf.Traced[wl.Name]
		if t == nil {
			continue
		}
		names := make([]string, 0, len(t.SelfS))
		for n := range t.SelfS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return t.SelfS[names[i]] > t.SelfS[names[j]] })
		var top []string
		for _, n := range names[:min(5, len(names))] {
			top = append(top, fmt.Sprintf("%s %.3fs", n, t.SelfS[n]))
		}
		overhead := "not measured"
		if t.Overhead > 0 {
			overhead = fmt.Sprintf("%.3f", t.Overhead)
		}
		fmt.Fprintf(w, "%s traced: coverage %.3f, overhead %s; top self time: %s\n",
			wl.Name, t.Layers["trace.coverage"].Value, overhead, strings.Join(top, ", "))
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range rf.Runs {
		if r.Result == nil {
			return nil, fmt.Errorf("%s: a run has no result", path)
		}
	}
	return &rf, nil
}

func compareFiles(sp *spec, basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readRunFile(basePath)
	if err == nil {
		var head *runFile
		if head, err = readRunFile(headPath); err == nil {
			if printCompare(stdout, sp, base, head) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(stderr, "predperf: %v\n", err)
	return 1
}

// updateGolden regenerates the golden file under the benchmark's
// directory.
func updateGolden(root string, sp *spec, stderr io.Writer) int {
	cfg := defaultConfig(1, 1)
	g, err := buildGolden(cfg.kernels, cfg.workers)
	if err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	path := filepath.Join(root, sp.Paths[0], "testdata", "golden_stats.txt")
	if err := os.WriteFile(path, []byte(g.format()), 0o644); err != nil {
		fmt.Fprintf(stderr, "predperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "predperf: wrote %d lines to %s\n", len(g), path)
	return 0
}
