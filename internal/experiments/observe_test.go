package experiments

import (
	"encoding/json"
	"strings"
	"testing"

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
		for key, pt := range r.Pipelines {
			if len(pt.Stages) == 0 {
				t.Errorf("%s %v: empty pipeline trace", r.Name, key)
			}
		}
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
