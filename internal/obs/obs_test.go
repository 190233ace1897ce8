package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"predication/internal/builder"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
)

func TestClassOf(t *testing.T) {
	cases := map[ir.Op]InstrClass{
		ir.Nop: ClassNop, ir.Halt: ClassNop,
		ir.Mov: ClassIALU, ir.Add: ClassIALU, ir.Shr: ClassIALU, ir.CmpLE: ClassIALU,
		ir.Mul: ClassMulDiv, ir.Div: ClassMulDiv, ir.Rem: ClassMulDiv,
		ir.AddF: ClassFALU, ir.DivF: ClassFALU, ir.CmpGEF: ClassFALU, ir.CvtFI: ClassFALU,
		ir.Load: ClassLoad, ir.Store: ClassStore,
		ir.BrEQ: ClassCondBranch, ir.BrGE: ClassCondBranch,
		ir.Jump: ClassJump, ir.JSR: ClassJump, ir.Ret: ClassJump,
		ir.PredDef: ClassPredDef, ir.PredClear: ClassPredDef, ir.PredSet: ClassPredDef,
		ir.CMov: ClassCMov, ir.CMovCom: ClassCMov, ir.Select: ClassCMov,
		ir.GuardApply: ClassGuard,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
	seen := map[string]bool{}
	for c := InstrClass(0); c < NumClasses; c++ {
		name := c.String()
		if name == "unknown" || seen[name] {
			t.Errorf("class %d has bad or duplicate name %q", c, name)
		}
		seen[name] = true
	}
}

func TestBreakdownInvariantAndJSON(t *testing.T) {
	var b Breakdown
	b[CauseIssued] = 10
	b[CauseMispredict] = 4
	b[CauseRegInterlock] = 6
	if b.Total() != 20 {
		t.Fatalf("total %d", b.Total())
	}
	if err := b.Verify(20); err != nil {
		t.Errorf("Verify(20): %v", err)
	}
	if err := b.Verify(21); err == nil {
		t.Error("Verify(21) should fail")
	}

	js, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(js, &m); err != nil {
		t.Fatal(err)
	}
	if m["total"] != 20 || m["mispredict"] != 4 || m["issue"] != 10 {
		t.Errorf("JSON schema wrong: %s", js)
	}
	for _, name := range CauseNames() {
		if _, ok := m[name]; !ok {
			t.Errorf("JSON missing category %q", name)
		}
	}
	var back Breakdown
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back != b {
		t.Errorf("roundtrip mismatch: %v != %v", back, b)
	}
}

func TestCycleAccountVerifyAndMix(t *testing.T) {
	var a CycleAccount
	a.Breakdown[CauseIssued] = 5
	a.Fetched[ClassIALU] = 7
	a.Fetched[ClassPredDef] = 3
	a.Nullified[ClassIALU] = 2
	if err := a.Verify(5, 10, 2); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if err := a.Verify(5, 11, 2); err == nil {
		t.Error("fetched mismatch should fail")
	}
	if err := a.Verify(5, 10, 3); err == nil {
		t.Error("nullified mismatch should fail")
	}
	mix := a.Mix()
	if len(mix) != 2 || mix[0].Class != "ialu" || mix[0].Nullified != 2 || mix[1].Class != "pred_define" {
		t.Errorf("mix %+v", mix)
	}
}

// traceProgram builds a tiny program and returns it with its dynamic step
// count.
func traceProgram(t *testing.T) (*ir.Program, int64) {
	t.Helper()
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	for i := 0; i < 9; i++ {
		b.I(ir.Add, f.Reg(), int64(i), 1)
	}
	b.Halt()
	prog := p.Program()
	prog.AssignAddresses()
	res, err := emu.Run(prog, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Steps
}

func TestTraceWriterChrome(t *testing.T) {
	prog, steps := traceProgram(t)
	var sb strings.Builder
	tw, err := NewTraceWriter(&sb, prog, TraceOptions{Format: FormatChrome})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emu.Run(prog, emu.Options{Sink: tw}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Args struct {
				PC int64 `json:"pc"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if int64(len(doc.TraceEvents)) != steps || tw.Emitted() != steps || tw.Steps() != steps {
		t.Fatalf("emitted %d records for %d steps", len(doc.TraceEvents), steps)
	}
	if doc.TraceEvents[0].Name != "add" || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("first record %+v", doc.TraceEvents[0])
	}
	if last := doc.TraceEvents[len(doc.TraceEvents)-1]; last.Name != "halt" || last.Ts != steps-1 {
		t.Errorf("last record %+v", last)
	}
}

func TestTraceWriterJSONLSamplingAndLimit(t *testing.T) {
	prog, steps := traceProgram(t) // 10 steps: 9 adds + halt
	var sb strings.Builder
	tw, err := NewTraceWriter(&sb, prog, TraceOptions{Format: FormatJSONL, Sample: 3, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emu.Run(prog, emu.Options{Sink: tw}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sample=3 limit=3 over %d steps: %d lines, want 3\n%s", steps, len(lines), sb.String())
	}
	for i, line := range lines {
		var rec struct {
			Step int64  `json:"step"`
			Op   string `json:"op"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if rec.Step != int64(i*3) {
			t.Errorf("line %d samples step %d, want %d", i, rec.Step, i*3)
		}
	}
	if tw.Steps() != steps {
		t.Errorf("step counting must continue past the limit: %d != %d", tw.Steps(), steps)
	}
}

func TestTraceWriterRejectsUnknownFormat(t *testing.T) {
	if _, err := NewTraceWriter(&strings.Builder{}, nil, TraceOptions{Format: "xml"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("cells_ok").Add(5)
	r.Counter("cells_ok").Inc()
	r.Counter("cells_failed")
	h := r.Histogram("cell_cycles", []float64{10, 100, 1000})
	for _, v := range []float64{3, 50, 5000, 7} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if snap.Counters["cells_ok"] != 6 || snap.Counters["cells_failed"] != 0 {
		t.Errorf("counters %+v", snap.Counters)
	}
	hs := snap.Histograms["cell_cycles"]
	if hs.Count != 4 || hs.Sum != 5060 {
		t.Errorf("histogram %+v", hs)
	}
	if want := []int64{2, 1, 0, 1}; len(hs.Counts) != 4 ||
		hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] || hs.Counts[3] != want[3] {
		t.Errorf("bucket counts %v, want %v", hs.Counts, want)
	}

	js1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	js2, _ := json.Marshal(r)
	if string(js1) != string(js2) {
		t.Error("registry JSON not deterministic")
	}
	if !strings.Contains(string(js1), `"counters"`) || !strings.Contains(string(js1), `"histograms"`) {
		t.Errorf("schema missing sections: %s", js1)
	}

	defer func() {
		if recover() == nil {
			t.Error("kind conflict should panic")
		}
	}()
	r.Histogram("cells_ok", []float64{1})
}

func TestSnapshotIRAndPipelineTrace(t *testing.T) {
	p := builder.New(64)
	f := p.Func("main")
	b := f.Entry()
	sink := f.Block("sink")
	r := f.Reg()
	b.Mov(r, 1)
	pr := f.F.NewPReg()
	b.B.Append(ir.NewPredDef(ir.EQ, ir.PredDest{P: pr, Type: ir.PredU},
		ir.PredDest{}, ir.Imm(0), ir.Imm(1), ir.PNone))
	g := ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1))
	g.Guard = pr
	b.B.Append(g)
	b.Br(ir.EQ, 1, 0, sink)
	b.Halt()
	sink.Halt()
	prog := p.Program()

	st := SnapshotIR(prog)
	if st.Instrs != 6 || st.Blocks != 2 || st.PredDefines != 1 || st.Guarded != 1 || st.Branches != 1 {
		t.Errorf("snapshot %+v", st)
	}
	if st.MaxBlockLen != 5 {
		t.Errorf("max block len %d, want 5", st.MaxBlockLen)
	}

	tr := NewPipelineTrace()
	tr.Record("normalize", prog)
	prog.EntryFunc().EntryBlock().Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(2)))
	tr.Record("grow", prog)
	if len(tr.Stages) != 2 || tr.Stages[0].Stage != "normalize" {
		t.Fatalf("stages %+v", tr.Stages)
	}
	if d := tr.Stages[1].IR.Instrs - tr.Stages[0].IR.Instrs; d != 1 {
		t.Errorf("stage grew by %d instructions", d)
	}
	if tr.Stages[0].WallSeconds < 0 || tr.Stages[1].WallSeconds < 0 {
		t.Error("negative wall time")
	}
	if tr.Stages[1].IR.Instrs != 7 {
		t.Errorf("final %+v", tr.Stages[1].IR)
	}
}

func TestMachineMeta(t *testing.T) {
	m := MachineMetaOf(machine.Issue8Br1())
	if m.Name != "issue8-br1" || m.IssueWidth != 8 || m.BranchSlots != 1 ||
		m.Predictor != "btb" || !m.PerfectCache || m.ICache != nil {
		t.Errorf("perfect-cache meta %+v", m)
	}
	cfg := machine.Issue8Br1Cache()
	cfg.Gshare = true
	mc := MachineMetaOf(cfg)
	if mc.Predictor != "gshare" || mc.ICache == nil || mc.DCache == nil {
		t.Fatalf("cache meta %+v", mc)
	}
	if mc.ICache.SizeBytes != 64<<10 || mc.ICache.BlockBytes != 64 ||
		mc.ICache.Lines != 1024 || mc.ICache.MissCycles != 12 {
		t.Errorf("icache meta %+v", *mc.ICache)
	}
	if m.PredicateDistance != 1 {
		t.Errorf("predicate distance %d, want 1 (decode/issue suppression default)", m.PredicateDistance)
	}
}
