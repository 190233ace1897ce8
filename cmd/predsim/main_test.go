package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"predication/internal/bench"
)

// capture runs the command with args and returns its stdout.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("predsim %v: %v", args, err)
	}
	return sb.String()
}

// TestList prints every registered kernel, one per line.
func TestList(t *testing.T) {
	out := capture(t, "-list")
	lines := strings.Count(out, "\n")
	if want := len(bench.All()); lines != want {
		t.Errorf("listed %d kernels, want %d", lines, want)
	}
	for _, k := range bench.All() {
		if !strings.Contains(out, k.Name) {
			t.Errorf("kernel %s missing from -list output", k.Name)
		}
	}
}

// TestReportFields checks the report structure and that the checksum is
// identical under every model (the compiled code must preserve semantics).
func TestReportFields(t *testing.T) {
	checksums := map[string]string{}
	re := regexp.MustCompile(`checksum:\s+(0x[0-9a-f]+|0)`)
	for _, model := range []string{"superblock", "cmov", "full", "guard"} {
		out := capture(t, "-bench", "wc", "-model", model)
		for _, field := range []string{"program:", "model:", "machine:", "checksum:",
			"cycles:", "dyn. instrs:", "IPC:", "branches:", "mispredicts:"} {
			if !strings.Contains(out, field) {
				t.Errorf("model %s: report missing %q", model, field)
			}
		}
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("model %s: no checksum line in output", model)
		}
		checksums[model] = m[1]
	}
	for model, sum := range checksums {
		if sum != checksums["superblock"] {
			t.Errorf("model %s checksum %s differs from superblock's %s",
				model, sum, checksums["superblock"])
		}
	}
}

// TestCacheFieldsOnlyWithCaches: the cache-miss lines appear exactly when
// the machine has real caches.
func TestCacheFieldsOnlyWithCaches(t *testing.T) {
	with := capture(t, "-bench", "grep", "-machine", "issue8-br1-64k")
	if !strings.Contains(with, "icache misses:") || !strings.Contains(with, "dcache misses:") {
		t.Error("cache machine report missing cache-miss lines")
	}
	without := capture(t, "-bench", "grep", "-machine", "issue8-br1")
	if strings.Contains(without, "icache misses:") {
		t.Error("perfect-cache report should not include cache-miss lines")
	}
}

// TestScheduleFigure5: the -schedule view of the wc loop reproduces the
// paper's Figure 5 lengths on the 4-issue machine.
func TestScheduleFigure5(t *testing.T) {
	re := regexp.MustCompile(`schedule length: (\d+) cycles`)
	length := func(model string) int {
		out := capture(t, "-bench", "wc", "-model", model, "-machine", "issue4-br1", "-schedule")
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("model %s: no schedule length in -schedule output", model)
		}
		var n int
		fmt.Sscanf(m[1], "%d", &n)
		return n
	}
	if n := length("full"); n != 8 {
		t.Errorf("full-predication wc loop schedules in %d cycles, want the paper's 8", n)
	}
	if n := length("cmov"); n < 9 || n > 10 {
		t.Errorf("conditional-move wc loop schedules in %d cycles, want 9-10", n)
	}
}

// TestDumpShowsCompiledCode: -dump prints the paper-syntax listing of the
// compiled program ahead of the report, and the listing reflects the
// model (predicate defines for full predication, none for superblock).
func TestDumpShowsCompiledCode(t *testing.T) {
	full := capture(t, "-bench", "cmp", "-model", "full", "-dump")
	i := strings.Index(full, "program:")
	if i < 0 {
		t.Fatal("no report after dump")
	}
	listing := full[:i]
	if !strings.Contains(listing, "func ") || !strings.Contains(listing, "pred_") {
		t.Error("full-predication dump lacks function header or predicate defines")
	}
	sb := capture(t, "-bench", "cmp", "-model", "superblock", "-dump")
	if strings.Contains(sb[:strings.Index(sb, "program:")], "pred_") {
		t.Error("superblock dump contains predicate defines")
	}
}

// TestStagesShowPipeline: -stages names each pipeline stage in order.
func TestStagesShowPipeline(t *testing.T) {
	out := capture(t, "-bench", "wc", "-model", "full", "-stages")
	prev := -1
	for _, stage := range []string{"normalize", "hyperblock-formation", "promotion", "branch-combining", "schedule"} {
		i := strings.Index(out, "=== after "+stage)
		if i < 0 {
			t.Errorf("stage %q missing from -stages output", stage)
			continue
		}
		if i < prev {
			t.Errorf("stage %q printed out of order", stage)
		}
		prev = i
	}
}

// TestFileInput runs the shipped example program from its .psasm source.
func TestFileInput(t *testing.T) {
	out := capture(t, "-file", "../../examples/asm/absdiff.psasm", "-model", "full")
	if !strings.Contains(out, "program:        ../../examples/asm/absdiff.psasm") {
		t.Error("report does not name the input file")
	}
	if !strings.Contains(out, "cycles:") {
		t.Error("no simulation report for file input")
	}
}

// TestErrors: bad flag values are reported as errors, not panics.
func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-bench", "nosuchkernel"},
		{"-model", "nosuchmodel"},
		{"-machine", "nosuchmachine"},
		{"-file", "/nonexistent/path.psasm"},
		{"-window", "-1"},
		{"-window", "4097"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("predsim %v: expected error", args)
		}
	}
}

// TestFailureDiagnosticsAreOneLine: compile and input failures must exit
// through safeRun as a single-line diagnostic, never a stack trace.
func TestFailureDiagnosticsAreOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.psasm")
	if err := os.WriteFile(path,
		[]byte(".mem 64\n.entry 0\nfunc F0 main:\nB0:\n\tbogus_op r1, r2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-bench", "nosuchkernel"},
		{"-file", "/nonexistent/path.psasm"},
		{"-file", path, "-model", "full"},
	}
	for _, args := range cases {
		var sb strings.Builder
		err := safeRun(args, &sb)
		if err == nil {
			t.Errorf("predsim %v: expected error", args)
			continue
		}
		msg := err.Error()
		if strings.Contains(msg, "goroutine") || strings.Contains(msg, "\n") {
			t.Errorf("predsim %v: diagnostic is not one line: %q", args, msg)
		}
	}
}

// TestVerifyFlag: -verify runs the per-stage IR verifier without changing
// the report.
func TestVerifyFlag(t *testing.T) {
	out := capture(t, "-bench", "wc", "-model", "full", "-verify")
	if !strings.Contains(out, "checksum:") {
		t.Error("no report with -verify")
	}
}

// TestPredictorFlag: -predictor gshare swaps the direction predictor in
// the simulated machine.  Timing-only: the checksum must not move, but the
// misprediction count must (the two predictors behave differently on the
// branch-heavy superblock build of wc).
func TestPredictorFlag(t *testing.T) {
	btb := capture(t, "-bench", "wc", "-model", "superblock")
	gs := capture(t, "-bench", "wc", "-model", "superblock", "-predictor", "gshare")
	if strings.Contains(btb, "predictor:") {
		t.Error("default report names a predictor line; expected only for gshare")
	}
	if !strings.Contains(gs, "predictor:      gshare") {
		t.Error("gshare report missing the predictor line")
	}
	sum := regexp.MustCompile(`checksum:\s+(\S+)`)
	if a, b := sum.FindStringSubmatch(btb)[1], sum.FindStringSubmatch(gs)[1]; a != b {
		t.Errorf("checksum moved with the predictor: btb %s, gshare %s", a, b)
	}
	mp := regexp.MustCompile(`mispredicts:\s+(\d+)`)
	if a, b := mp.FindStringSubmatch(btb)[1], mp.FindStringSubmatch(gs)[1]; a == b {
		t.Errorf("btb and gshare report identical mispredicts (%s); the flag is not wired through", a)
	}

	var sb strings.Builder
	if err := run([]string{"-bench", "wc", "-predictor", "alpha21264"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("bad predictor error = %v, want unknown predictor", err)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files next to the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	capture(t, "-bench", "wc", "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestBreakdownFlag: -breakdown appends the verified cycle decomposition
// and instruction mix to the report.
func TestBreakdownFlag(t *testing.T) {
	out := capture(t, "-bench", "wc", "-model", "full", "-breakdown")
	for _, want := range []string{"cycle breakdown", "instruction mix:", "issue", "pred_define"} {
		if !strings.Contains(out, want) {
			t.Errorf("-breakdown output missing %q", want)
		}
	}
	if !strings.Contains(out, "checksum:") {
		t.Error("-breakdown suppressed the base report")
	}
}

// TestStatsJSONFile: -stats-json writes the documented schema with a
// breakdown that sums to the cycle count and a populated pipeline trace,
// while the human report stays on stdout.
func TestStatsJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	out := capture(t, "-bench", "wc", "-model", "full", "-stats-json", path)
	if !strings.Contains(out, "checksum:") {
		t.Error("human report missing when -stats-json targets a file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep statsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if rep.Program != "wc" || rep.Machine.Name != "issue8-br1" {
		t.Errorf("wrong identity fields: program %q machine %q", rep.Program, rep.Machine.Name)
	}
	if rep.Stats.Cycles <= 0 {
		t.Fatalf("no cycles recorded: %+v", rep.Stats)
	}
	if got := rep.Breakdown.Total(); got != rep.Stats.Cycles {
		t.Errorf("breakdown sums to %d, run took %d cycles", got, rep.Stats.Cycles)
	}
	if rep.UsefulIPC > rep.IPC || rep.UsefulIPC <= 0 {
		t.Errorf("implausible IPC pair: ipc %f useful %f", rep.IPC, rep.UsefulIPC)
	}
	if len(rep.Mix) == 0 {
		t.Error("empty instruction mix")
	}
	if rep.Pipeline == nil || len(rep.Pipeline.Stages) == 0 {
		t.Error("empty pipeline trace")
	}
}

// TestStatsJSONStdout: with -stats-json - the whole of stdout is one JSON
// document (no human report mixed in), so jq pipelines work.
func TestStatsJSONStdout(t *testing.T) {
	out := capture(t, "-bench", "wc", "-stats-json", "-")
	var rep statsReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", err, out)
	}
	if rep.Stats.Cycles <= 0 {
		t.Errorf("no stats in JSON: %+v", rep.Stats)
	}
}

// TestTraceFlags: -trace-out writes a loadable Chrome trace or JSONL
// stream, honoring -trace-sample and -trace-limit; a bad -trace-format is
// an error.
func TestTraceFlags(t *testing.T) {
	dir := t.TempDir()

	chrome := filepath.Join(dir, "trace.json")
	out := capture(t, "-bench", "wc", "-model", "full", "-trace-out", chrome, "-trace-sample", "100")
	if !strings.Contains(out, "trace:") {
		t.Error("report does not mention the trace file")
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	ev := doc.TraceEvents[0]
	for _, key := range []string{"name", "ph", "ts"} {
		if _, ok := ev[key]; !ok {
			t.Errorf("trace event missing %q: %v", key, ev)
		}
	}

	jsonl := filepath.Join(dir, "trace.jsonl")
	capture(t, "-bench", "wc", "-model", "full",
		"-trace-out", jsonl, "-trace-format", "jsonl", "-trace-limit", "50")
	data, err = os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 50 {
		t.Errorf("jsonl trace has %d records, -trace-limit asked for 50", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl record does not parse: %v\n%s", err, line)
		}
	}

	var sb strings.Builder
	if err := run([]string{"-bench", "wc", "-trace-out", filepath.Join(dir, "x"),
		"-trace-format", "xml"}, &sb); err == nil {
		t.Error("bad -trace-format accepted")
	}
}

// TestTraceFlagValidation: zero/negative sampling parameters are rejected
// up front with a one-line diagnostic instead of being silently clamped
// (zero -trace-sample used to mean "every event", negative -trace-limit
// used to mean "unlimited").
func TestTraceFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-bench", "wc", "-trace-sample", "0"},
		{"-bench", "wc", "-trace-sample", "-5"},
		{"-bench", "wc", "-trace-limit", "-1"},
	}
	for _, args := range cases {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil {
			t.Errorf("predsim %v: expected error", args)
			continue
		}
		if msg := err.Error(); strings.Contains(msg, "\n") {
			t.Errorf("predsim %v: diagnostic is not one line: %q", args, msg)
		}
	}
}
