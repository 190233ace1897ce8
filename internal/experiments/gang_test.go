package experiments

import (
	"testing"

	"predication/internal/core"
	"predication/internal/machine"
)

// TestGangMatchesPerConfig pins the harness's single-pass cells: every
// Stats a suite run reports — each cell's configurations priced by one
// gang over one emulation — equals a separate one-lane measurement of the
// same compiled artifact per configuration.
func TestGangMatchesPerConfig(t *testing.T) {
	suite, err := Run(Options{Kernels: []string{"wc", "grep", "qsort"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Errors) != 0 {
		t.Fatalf("cell errors: %v", suite.Errors)
	}
	for _, r := range suite.Results {
		n := 0
		for _, cell := range matrixCells() {
			art, err := CompileCell(r.Name, cell.model, cell.target)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range SimsFor(cell.target) {
				ms, err := art.MeasureAll([]machine.Config{cfg}, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.Stat(cell.model, cfg.Name); got != ms[0].Stats {
					t.Errorf("%s %v @ %s: suite cell diverges from a one-lane measurement:\n  suite %+v\n  lane  %+v",
						r.Name, cell.model, cfg.Name, got, ms[0].Stats)
				}
				n++
			}
		}
		if n != len(r.Stats) {
			t.Errorf("%s: compared %d cells, the suite measured %d", r.Name, n, len(r.Stats))
		}
	}
}

// TestPredictorAxis runs the matrix with the predictor axis enabled: the
// default cells keep their bare configuration names (byte-identical to a
// run without the axis), and every machine configuration gains a
// "+gshare" twin that was actually measured.
func TestPredictorAxis(t *testing.T) {
	kernels := []string{"wc", "grep"}
	base, err := Run(Options{Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(Options{Kernels: kernels, Predictors: []string{"btb", "gshare"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Errors) != 0 {
		t.Fatalf("cell errors: %v", both.Errors)
	}
	for i, r := range both.Results {
		br := base.Results[i]
		for key, st := range br.Stats {
			if got, ok := r.Stats[key]; !ok || got != st {
				t.Errorf("%s %v/%s: primary-predictor cell changed under the axis", r.Name, key.Model, key.Config)
			}
		}
		gsh := 0
		for key := range r.Stats {
			if key.Config == "issue8-br1+gshare" && key.Model == core.FullPred {
				gsh++
				a := r.Stats[Key{key.Model, "issue8-br1"}]
				b := r.Stats[key]
				// Same stream, different predictor: everything but the
				// prediction-dependent fields matches.
				if a.Instrs != b.Instrs || a.CondBranches != b.CondBranches {
					t.Errorf("%s: gshare twin diverges in stream-pure stats", r.Name)
				}
			}
		}
		if gsh == 0 {
			t.Errorf("%s: no issue8-br1+gshare cell measured", r.Name)
		}
	}
}

// TestPredictorValidation pins the one-line errors for a bad predictor
// list.
func TestPredictorValidation(t *testing.T) {
	if _, err := Run(Options{Predictors: []string{"ttage"}}); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, err := Run(Options{Predictors: []string{"btb", "btb"}}); err == nil {
		t.Error("duplicate predictor accepted")
	}
	if _, err := SimConfigNames([]string{"nope"}, nil); err == nil {
		t.Error("SimConfigNames accepted unknown predictor")
	}
	names, err := SimConfigNames([]string{"btb", "gshare"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 12 || names[0] != "issue1" || names[6] != "issue1+gshare" {
		t.Errorf("unexpected config name expansion: %v", names)
	}
}

// TestMeasureAll pins the exported single-pass cell surface: one
// emulation fills every sibling configuration with measurements
// identical to measuring each configuration on its own.
func TestMeasureAll(t *testing.T) {
	art, err := CompileCell("wc", core.FullPred, machine.Issue8Br1())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := SimsFor(art.Target)
	if len(cfgs) != 2 {
		t.Fatalf("expected 2 sibling configs for issue8-br1, got %d", len(cfgs))
	}
	ms, err := art.MeasureAll(cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, err := art.MeasureAll([]machine.Config{cfg}, true)
		if err != nil {
			t.Fatal(err)
		}
		ref := one[0]
		if ms[i].Stats != ref.Stats || ms[i].Checksum != ref.Checksum || ms[i].Steps != ref.Steps {
			t.Errorf("%s: gang lane diverges from a one-lane measurement:\n  all %+v\n  one %+v", cfg.Name, ms[i], ref)
		}
		if *ms[i].Account != *ref.Account {
			t.Errorf("%s: gang lane account diverges from a one-lane measurement", cfg.Name)
		}
	}
	if _, err := art.MeasureAll(nil, false); err == nil {
		t.Error("MeasureAll accepted an empty configuration list")
	}
}
