package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/obs"
)

// TestRunObserve: a suite run with Options.Observe carries a Verify-checked
// cycle account for every measured cell, a pipeline trace for every
// compile, suite-level registry metrics, and renderable breakdown tables —
// and the stats are identical to an unobserved run.
func TestRunObserve(t *testing.T) {
	kernels := []string{"wc", "grep"}
	reg := obs.NewRegistry()
	suite, err := Run(Options{Kernels: kernels, Observe: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Errors) != 0 {
		t.Fatalf("observed run produced cell errors: %v", suite.Errors)
	}
	plain, err := Run(Options{Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range suite.Results {
		if len(r.Accounts) != len(r.Stats) {
			t.Errorf("%s: %d accounts for %d cells", r.Name, len(r.Accounts), len(r.Stats))
		}
		if len(r.Pipelines) == 0 {
			t.Errorf("%s: no pipeline traces", r.Name)
		}
		for key, st := range r.Stats {
			if st != plain.Results[i].Stats[key] {
				t.Errorf("%s %v: observed stats diverge from plain run", r.Name, key)
			}
			a := r.Accounts[key]
			if a == nil {
				t.Errorf("%s %v: missing account", r.Name, key)
				continue
			}
			if err := a.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
				t.Errorf("%s %v: %v", r.Name, key, err)
			}
		}
		checkSharedTraces(t, r)
	}

	snap := reg.Snapshot()
	if snap.Counters["cells_failed"] != 0 {
		t.Errorf("cells_failed = %d", snap.Counters["cells_failed"])
	}
	var cellsOK int64
	for _, r := range suite.Results {
		cellsOK += int64(len(r.Stats))
	}
	if snap.Counters["cells_ok"] != cellsOK {
		t.Errorf("cells_ok = %d, want %d", snap.Counters["cells_ok"], cellsOK)
	}
	if snap.Counters["steps_total"] != suite.Steps {
		t.Errorf("steps_total = %d, want %d", snap.Counters["steps_total"], suite.Steps)
	}
	if _, err := json.Marshal(reg); err != nil {
		t.Errorf("registry marshal: %v", err)
	}

	if agg := suite.AggregateBreakdown(Models[0], "issue8-br1"); agg == nil {
		t.Error("no aggregate breakdown for superblock @ issue8-br1")
	}
	bt := suite.BreakdownTable("issue8-br1")
	if !strings.Contains(bt.String(), "Full Predication") {
		t.Errorf("breakdown table missing model rows:\n%s", bt)
	}
	it := suite.IPCTable("issue8-br1")
	if len(it.Rows) != len(suite.Results) {
		t.Errorf("IPC table has %d rows for %d results", len(it.Rows), len(suite.Results))
	}
}

// checkSharedTraces holds one kernel's pipeline traces to their two
// promises.  Each cell's trace lists every stage its listing went
// through, exactly the stages a standalone core.Compile of the cell
// records.  And the records not marked shared count each stage execution
// once: the formation stages once per model family, the conversion to
// conditional moves once, scheduling once per cell, so summing them gives
// the compile time actually spent.
func checkSharedTraces(t *testing.T, r *BenchResult) {
	t.Helper()
	k, err := bench.ByName(r.Name)
	if err != nil {
		t.Fatal(err)
	}
	cells := matrixCells()
	if len(r.Pipelines) != len(cells) {
		t.Errorf("%s: %d pipeline traces for %d cells", r.Name, len(r.Pipelines), len(cells))
	}
	unshared := map[string]int{}
	for _, cell := range cells {
		pt := r.Pipelines[Key{cell.model, cell.target.Name}]
		if pt == nil {
			t.Errorf("%s %v @ %s: no pipeline trace", r.Name, cell.model, cell.target.Name)
			continue
		}
		opts := core.DefaultOptions(cell.target)
		opts.Pipeline = obs.NewPipelineTrace()
		if _, err := core.Compile(k.Build(), cell.model, opts); err != nil {
			t.Fatal(err)
		}
		if got, want := stageNames(pt), stageNames(opts.Pipeline); got != want {
			t.Errorf("%s %v @ %s: trace stages %s, a standalone compile records %s",
				r.Name, cell.model, cell.target.Name, got, want)
		}
		if fmt.Sprint(pt.HyperblockSizes) != fmt.Sprint(opts.Pipeline.HyperblockSizes) {
			t.Errorf("%s %v @ %s: hyperblock sizes differ from a standalone compile", r.Name, cell.model, cell.target.Name)
		}
		for i, st := range pt.Stages {
			if !st.Shared {
				unshared[st.Stage]++
			} else if i > 0 && !pt.Stages[i-1].Shared {
				t.Errorf("%s %v @ %s: shared %s follows an unshared stage", r.Name, cell.model, cell.target.Name, st.Stage)
			}
		}
	}
	want := map[string]int{
		"normalize": 2, "profile": 2, // one formation per family
		"superblock-formation": 1, "cleanup": 1,
		"hyperblock-formation": 1, "promotion": 1, "branch-combining": 1,
		"partial-conversion": 1, "peephole": 1, // one derived cmov form
		"schedule": len(cells),
	}
	if fmt.Sprint(unshared) != fmt.Sprint(want) {
		t.Errorf("%s: unshared stage records %v, want %v", r.Name, unshared, want)
	}
}

// stageNames lists a trace's stages, for comparison.
func stageNames(pt *obs.PipelineTrace) string {
	var names []string
	for _, st := range pt.Stages {
		names = append(names, st.Stage)
	}
	return strings.Join(names, ",")
}
