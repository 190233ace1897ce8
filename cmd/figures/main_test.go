package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/sim"
)

// capture runs the command with args and returns its stdout, discarding
// progress output.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb, io.Discard); err != nil {
		t.Fatalf("figures %v: %v", args, err)
	}
	return sb.String()
}

// titles in paper order, as emitted in every rendering mode.
var wantTitles = []string{
	"Figure 8: speedup, 8-issue 1-branch, perfect caches",
	"Figure 9: speedup, 8-issue 2-branch, perfect caches",
	"Figure 10: speedup, 4-issue 1-branch, perfect caches",
	"Figure 11: speedup, 8-issue 1-branch, 64K I/D caches",
	"Table 2: dynamic instruction count comparison",
	"Table 3: branch statistics (8-issue 1-branch)",
}

// TestAllTablesEmitted: the default rendering includes every figure and
// table of the evaluation section, in paper order.
func TestAllTablesEmitted(t *testing.T) {
	out := capture(t, "-bench", "wc,grep")
	prev := -1
	for _, title := range wantTitles {
		i := strings.Index(out, title)
		if i < 0 {
			t.Errorf("missing table %q", title)
			continue
		}
		if i < prev {
			t.Errorf("table %q out of order", title)
		}
		prev = i
	}
}

// TestMarkdownMode: -markdown emits well-formed GitHub tables with a
// constant column count per table.
func TestMarkdownMode(t *testing.T) {
	out := capture(t, "-bench", "wc", "-markdown")
	var cols int
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			cols = 0
		case strings.HasPrefix(line, "|"):
			n := strings.Count(line, "|") - 1
			if cols == 0 {
				cols = n
			} else if n != cols {
				t.Errorf("ragged markdown row (%d cells, want %d): %s", n, cols, line)
			}
		}
	}
	if !strings.Contains(out, "### Figure 8") {
		t.Error("markdown headings missing")
	}
}

// TestCSVMode: -csv rows parse, and the speedup cells are sane numbers.
func TestCSVMode(t *testing.T) {
	out := capture(t, "-bench", "wc", "-csv")
	if !strings.Contains(out, "# Figure 8") {
		t.Fatal("missing CSV section header")
	}
	section := out[strings.Index(out, "# Figure 8"):]
	section = section[:strings.Index(section, "\n\n")]
	lines := strings.Split(strings.TrimSpace(section), "\n")
	// header comment, column header, wc row, mean row
	if len(lines) != 4 {
		t.Fatalf("Figure 8 CSV has %d lines, want 4:\n%s", len(lines), section)
	}
	for _, row := range lines[2:] {
		cells := strings.Split(row, ",")
		if len(cells) != 4 {
			t.Fatalf("CSV row %q has %d cells, want 4", row, len(cells))
		}
		for _, c := range cells[1:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Errorf("non-numeric speedup cell %q", c)
			} else if v <= 0 || v > 100 {
				t.Errorf("implausible speedup %v", v)
			}
		}
	}
}

// TestBenchFilter: -bench restricts the suite to the named kernels.
func TestBenchFilter(t *testing.T) {
	out := capture(t, "-bench", "wc")
	if !strings.Contains(out, "wc") {
		t.Error("selected kernel missing")
	}
	if strings.Contains(out, "grep") || strings.Contains(out, "espresso") {
		t.Error("unselected kernels present in filtered run")
	}
}

// TestUnknownKernel is reported as an error.
func TestUnknownKernel(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "nosuchkernel"}, &sb, io.Discard); err == nil {
		t.Error("expected error for unknown kernel")
	}
}

// TestKernelsFlag: -kernels filters the suite like -bench, and the run
// emits one progress line per completed benchmark.
func TestKernelsFlag(t *testing.T) {
	var out, progress strings.Builder
	if err := run([]string{"-kernels", "wc,cmp"}, &out, &progress); err != nil {
		t.Fatalf("figures -kernels: %v", err)
	}
	if !strings.Contains(out.String(), "wc") || !strings.Contains(out.String(), "cmp") {
		t.Error("selected kernels missing from output")
	}
	if strings.Contains(out.String(), "grep") {
		t.Error("unselected kernel present in filtered run")
	}
	var lines int
	for _, l := range strings.Split(strings.TrimSpace(progress.String()), "\n") {
		if strings.Contains(l, "done") {
			lines++
		}
	}
	if lines != 2 {
		t.Errorf("%d progress lines, want one per benchmark (2):\n%s", lines, progress.String())
	}
}

// TestParallelFlag: the worker-pool size flag is accepted and produces
// the same tables as the sequential path; a negative value is rejected.
func TestParallelFlag(t *testing.T) {
	seq := capture(t, "-kernels", "wc", "-parallel", "1")
	par := capture(t, "-kernels", "wc", "-parallel", "4")
	if seq != par {
		t.Errorf("parallel output differs from sequential:\n--- parallel=1\n%s\n--- parallel=4\n%s", seq, par)
	}
	var sb strings.Builder
	if err := run([]string{"-parallel", "-2", "-kernels", "wc"}, &sb, io.Discard); err == nil {
		t.Error("expected error for negative -parallel")
	}
}

// TestBenchKernelsConflict: giving both filter flags with different lists
// is an error rather than silently preferring one.
func TestBenchKernelsConflict(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "wc", "-kernels", "grep"}, &sb, io.Discard); err == nil {
		t.Error("expected error for conflicting -bench and -kernels")
	}
}

// TestCellFaultBecomesGapAndNonzeroExit: a panicking matrix cell must not
// kill the command — tables render with a tagged gap, the error report
// names the cell, and the exit is a one-line error.
func TestCellFaultBecomesGapAndNonzeroExit(t *testing.T) {
	experiments.CellHook = func(kernel string, model core.Model, target string) {
		if kernel == "wc" && model == core.FullPred && target == "issue8-br2" {
			panic("injected cell fault")
		}
	}
	defer func() { experiments.CellHook = nil }()
	var out, errw strings.Builder
	err := safeRun([]string{"-bench", "wc,grep"}, &out, &errw)
	if err == nil {
		t.Fatal("run with a failing cell exited clean")
	}
	if msg := err.Error(); strings.Contains(msg, "goroutine") || strings.Contains(msg, "\n") {
		t.Errorf("diagnostic is not one line: %q", msg)
	}
	if !strings.Contains(out.String(), "n/a") {
		t.Errorf("tables do not tag the failed cell:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "wc: Full Predication @ issue8-br2") {
		t.Errorf("error report does not name the failing cell:\n%s", errw.String())
	}
}

// TestFailFastFlag: -failfast restores first-error cancellation.
func TestFailFastFlag(t *testing.T) {
	experiments.CellHook = func(kernel string, model core.Model, target string) {
		if model == core.CondMove {
			panic("injected cell fault")
		}
	}
	defer func() { experiments.CellHook = nil }()
	var out, errw strings.Builder
	err := safeRun([]string{"-bench", "wc", "-failfast"}, &out, &errw)
	if err == nil {
		t.Fatal("-failfast run with a failing cell exited clean")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("-failfast error does not surface the cell failure: %v", err)
	}
}

// TestBreakdownTables: -breakdown appends the stall-cycle and IPC tables
// after the paper's figures.
func TestBreakdownTables(t *testing.T) {
	out := capture(t, "-bench", "wc", "-breakdown")
	figI := strings.Index(out, "Figure 8")
	bdI := strings.Index(out, "Cycle breakdown (issue8-br1)")
	ipcI := strings.Index(out, "IPC and useful IPC (issue8-br1)")
	if figI < 0 || bdI < 0 || ipcI < 0 {
		t.Fatalf("missing tables (figure %d, breakdown %d, ipc %d):\n%s", figI, bdI, ipcI, out)
	}
	if bdI < figI || ipcI < bdI {
		t.Error("breakdown tables not appended after the paper figures")
	}
	for _, cause := range []string{"issue_width", "branch_limit", "mispredict"} {
		if !strings.Contains(out, cause) {
			t.Errorf("breakdown table missing cause column %q", cause)
		}
	}
}

// TestSuiteStatsJSON: -stats-json emits one verified record per measured
// cell plus the suite registry.
func TestSuiteStatsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	capture(t, "-bench", "wc", "-stats-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []struct {
			Benchmark string           `json:"benchmark"`
			Model     string           `json:"model"`
			Config    string           `json:"config"`
			Stats     sim.Stats        `json:"stats"`
			IPC       float64          `json:"ipc"`
			UsefulIPC float64          `json:"useful_ipc"`
			Breakdown map[string]int64 `json:"breakdown"`
		} `json:"cells"`
		Steps    int64          `json:"steps"`
		Errors   []string       `json:"errors"`
		Registry map[string]any `json:"registry"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("suite JSON does not parse: %v", err)
	}
	// wc alone: superblock measures 6 configs (issue1 fans out to the cache
	// variant), the predicated models 4 each.
	if len(doc.Cells) != 14 {
		t.Errorf("%d cells for one kernel, want 14", len(doc.Cells))
	}
	if doc.Steps <= 0 || len(doc.Errors) != 0 {
		t.Errorf("steps %d, errors %v", doc.Steps, doc.Errors)
	}
	if doc.Registry == nil {
		t.Error("registry snapshot missing")
	}
	for _, c := range doc.Cells {
		if c.Benchmark != "wc" || c.Stats.Cycles <= 0 {
			t.Errorf("bad cell identity: %+v", c)
		}
		if c.Breakdown == nil {
			t.Errorf("%s @ %s: no breakdown", c.Model, c.Config)
			continue
		}
		if c.Breakdown["total"] != c.Stats.Cycles {
			t.Errorf("%s @ %s: breakdown total %d != %d cycles",
				c.Model, c.Config, c.Breakdown["total"], c.Stats.Cycles)
		}
		if c.UsefulIPC > c.IPC || c.UsefulIPC <= 0 {
			t.Errorf("%s @ %s: implausible IPC pair %f / %f", c.Model, c.Config, c.IPC, c.UsefulIPC)
		}
	}
}

// TestSuiteStatsJSONStdout: with -stats-json - stdout is one JSON
// document and the tables move out of the way.
func TestSuiteStatsJSONStdout(t *testing.T) {
	out := capture(t, "-bench", "wc", "-stats-json", "-")
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v", err)
	}
	if strings.Contains(out, "Figure 8: speedup") {
		t.Error("tables mixed into the JSON stream")
	}
}

// TestCellTimeoutValidation: a negative -cell-timeout is rejected up
// front with a one-line diagnostic rather than handed to the harness with
// undefined behavior.
func TestCellTimeoutValidation(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-bench", "wc", "-cell-timeout", "-3s"}, &sb, io.Discard)
	if err == nil {
		t.Fatal("expected error for negative -cell-timeout")
	}
	if msg := err.Error(); strings.Contains(msg, "\n") {
		t.Errorf("diagnostic is not one line: %q", msg)
	}
}

// TestWindowFlagBound: a -window past machine.MaxWindowSize fails with a
// one-line error before the suite runs.
func TestWindowFlagBound(t *testing.T) {
	err := run([]string{"-bench", "wc", "-window", "0,4097"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "invalid window 4097") || strings.Contains(err.Error(), "\n") {
		t.Errorf("error = %v, want a one-line invalid window 4097", err)
	}
}

// TestPredictorMatrixFlag: -predictor widens the matrix with suffixed
// configuration cells (visible through -stats-json), and a bad list
// fails with a one-line error before the suite runs.
func TestPredictorMatrixFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	capture(t, "-bench", "wc", "-predictor", "btb,gshare", "-stats-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []struct {
			Config string `json:"config"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	configs := map[string]bool{}
	for _, c := range doc.Cells {
		configs[c.Config] = true
	}
	if !configs["issue8-br1"] || !configs["issue8-br1+gshare"] {
		t.Errorf("predictor matrix cells missing (have %v)", configs)
	}
	var sb strings.Builder
	err = run([]string{"-bench", "wc", "-predictor", "ttage"}, &sb, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("error = %v, want unknown predictor", err)
	}
}
