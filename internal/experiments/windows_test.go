package experiments

import (
	"testing"

	"predication/internal/core"
	"predication/internal/machine"
)

// TestWindowAxis runs the matrix with the window axis enabled: the
// default cells keep their bare configuration names (byte-identical to
// a run without the axis), and every machine configuration gains an
// "+ooo32" twin measured on the out-of-order scheduler over the same
// compiled artifact.
func TestWindowAxis(t *testing.T) {
	kernels := []string{"wc", "grep"}
	base, err := Run(Options{Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(Options{Kernels: kernels, Windows: []int{0, 32}})
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
				t.Errorf("%s %v/%s: primary-window cell changed under the axis", r.Name, key.Model, key.Config)
			}
		}
		ooo := 0
		for key := range r.Stats {
			if key.Config == "issue8-br1+ooo32" && key.Model == core.FullPred {
				ooo++
				a := r.Stats[Key{key.Model, "issue8-br1"}]
				b := r.Stats[key]
				// Same stream, same front end: everything but the timing
				// matches, and the window can only help.
				if a.Instrs != b.Instrs || a.Mispredicts != b.Mispredicts {
					t.Errorf("%s: ooo32 twin diverges in stream-pure stats", r.Name)
				}
				if b.Cycles > a.Cycles {
					t.Errorf("%s: ooo32 slower than in-order (%d vs %d cycles)", r.Name, b.Cycles, a.Cycles)
				}
			}
		}
		if ooo == 0 {
			t.Errorf("%s: no issue8-br1+ooo32 cell measured", r.Name)
		}
	}
}

// TestWindowAxisValidation pins the one-line errors of the window axis
// and its composition rules.
func TestWindowAxisValidation(t *testing.T) {
	if _, err := Run(Options{Windows: []int{-4}}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Run(Options{Windows: []int{32, 32}}); err == nil {
		t.Error("duplicate window accepted")
	}
	if _, err := SimConfigNames(nil, []int{0, 0}); err == nil {
		t.Error("SimConfigNames accepted duplicate windows")
	}
	names, err := SimConfigNames([]string{"btb", "gshare"}, []int{0, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 24 {
		t.Fatalf("want 24 expanded names, got %d: %v", len(names), names)
	}
	if names[0] != "issue1" || names[6] != "issue1+gshare" ||
		names[12] != "issue1+ooo32" || names[18] != "issue1+gshare+ooo32" {
		t.Errorf("unexpected window expansion order: %v", names)
	}
	// A secondary in-order arm is a named variant too.
	names, err = SimConfigNames(nil, []int{16, 0})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "issue1" || names[6] != "issue1+io" {
		t.Errorf("secondary in-order arm misnamed: %v", names)
	}
}

// TestApplyWindow pins the serving daemon's ?window= parameter form.
func TestApplyWindow(t *testing.T) {
	base := machine.Issue8Br1()
	for _, empty := range []string{"", "0"} {
		cfg, err := ApplyWindow(base, empty)
		if err != nil || cfg.Name != "issue8-br1" || cfg.OoO {
			t.Errorf("ApplyWindow(%q) = %+v, %v; want unchanged config", empty, cfg, err)
		}
	}
	cfg, err := ApplyWindow(base, "32")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.OoO || cfg.WindowSize != 32 || cfg.Name != "issue8-br1+ooo32" {
		t.Errorf("ApplyWindow(32) = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("applied window does not validate: %v", err)
	}
	// The suffix is invisible to the scheduler: the artifact is shared
	// with the base machine.
	if got := SchedTarget(cfg); got.Name != "issue8-br1" {
		t.Errorf("SchedTarget(%s) = %s, want issue8-br1", cfg.Name, got.Name)
	}
	for _, bad := range []string{"-1", "x", "1.5", "0x10"} {
		if _, err := ApplyWindow(base, bad); err == nil {
			t.Errorf("ApplyWindow(%q) accepted", bad)
		}
	}
}

// TestMeasureWindowCell pins the per-cell surface on an out-of-order
// configuration: measured alone and next to its in-order sibling it
// agrees, and the observed run's account verifies against the
// out-of-order cycle count.
func TestMeasureWindowCell(t *testing.T) {
	cfg, err := ApplyWindow(machine.Issue8Br1(), "32")
	if err != nil {
		t.Fatal(err)
	}
	art, err := CompileCell("wc", core.FullPred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := art.MeasureAll([]machine.Config{cfg}, true)
	if err != nil {
		t.Fatal(err)
	}
	both, err := art.MeasureAll([]machine.Config{machine.Issue8Br1(), cfg}, true)
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Stats != both[1].Stats || *one[0].Account != *both[1].Account {
		t.Errorf("window cell diverges next to an in-order lane:\n  both %+v\n  one  %+v", both[1].Stats, one[0].Stats)
	}
}
