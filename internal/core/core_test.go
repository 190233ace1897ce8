package core

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/ir"
	"predication/internal/machine"
)

func TestModelString(t *testing.T) {
	cases := map[Model]string{
		Superblock: "Superblock",
		CondMove:   "Conditional Move",
		FullPred:   "Full Predication",
		Model(99):  "Model(99)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d: %q", int(m), m.String())
		}
	}
}

func TestCompileUnknownModel(t *testing.T) {
	k, _ := bench.ByName("wc")
	if _, err := Compile(k.Build(), Model(42), DefaultOptions(machine.Issue8Br1())); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	k, _ := bench.ByName("wc")
	src := k.Build()
	before := src.NumInstrs()
	if _, err := Compile(src, FullPred, DefaultOptions(machine.Issue8Br1())); err != nil {
		t.Fatal(err)
	}
	if src.NumInstrs() != before {
		t.Error("Compile mutated its input program")
	}
}

func TestStageHookOrder(t *testing.T) {
	k, _ := bench.ByName("wc")
	var stages []string
	opts := DefaultOptions(machine.Issue8Br1())
	opts.StageHook = func(s string, p *ir.Program) {
		stages = append(stages, s)
		if p == nil || p.NumInstrs() == 0 {
			t.Errorf("stage %s: empty program", s)
		}
	}
	if _, err := Compile(k.Build(), CondMove, opts); err != nil {
		t.Fatal(err)
	}
	want := []string{"normalize", "hyperblock-formation", "promotion",
		"branch-combining", "partial-conversion", "peephole", "schedule"}
	if len(stages) != len(want) {
		t.Fatalf("stages %v", stages)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("stage %d = %s, want %s", i, stages[i], want[i])
		}
	}
}

func TestProfileStepsLimit(t *testing.T) {
	k, _ := bench.ByName("wc")
	opts := DefaultOptions(machine.Issue8Br1())
	opts.ProfileSteps = 10 // absurdly small: the profiling run must fail
	if _, err := Compile(k.Build(), FullPred, opts); err == nil {
		t.Error("profile step limit not enforced")
	}
}

// TestFullPredKeepsGuards / TestCondMoveRemovesGuards: the two predicated
// pipelines must produce the right instruction population.
func TestModelInstructionPopulations(t *testing.T) {
	k, _ := bench.ByName("wc")
	counts := func(m Model) (guards, preds, cmovs int) {
		c, err := Compile(k.Build(), m, DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Prog.Funcs {
			for _, b := range f.LiveBlocks(nil) {
				for _, in := range b.Instrs {
					if in.Guard != ir.PNone {
						guards++
					}
					switch in.Op {
					case ir.PredDef, ir.PredClear, ir.PredSet:
						preds++
					case ir.CMov, ir.CMovCom, ir.Select:
						cmovs++
					}
				}
			}
		}
		return
	}
	if g, p, c := counts(Superblock); g+p+c != 0 {
		t.Errorf("superblock code contains predication: %d/%d/%d", g, p, c)
	}
	if g, p, _ := counts(CondMove); g+p != 0 {
		t.Errorf("conditional-move code retains full predication: %d/%d", g, p)
	}
	if _, _, c := counts(CondMove); c == 0 {
		t.Error("conditional-move code contains no conditional moves")
	}
	if g, p, _ := counts(FullPred); g == 0 || p == 0 {
		t.Error("full-predication code lost its predication")
	}
}

// TestDeriveFamilies pins which forms Derive converts: the fully
// predicated form serves full predication and guard instructions as is
// and converts to conditional moves; nothing derives across families or
// back from conditional moves.
func TestDeriveFamilies(t *testing.T) {
	k, _ := bench.ByName("wc")
	opts := DefaultOptions(machine.Config{})
	full, err := Form(k.Build(), FullPred, opts)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Form(k.Build(), Superblock, opts)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := full.Derive(GuardInstr, opts)
	if err != nil || guard.Prog != full.Prog {
		t.Errorf("guard form does not share the fully predicated program: %v", err)
	}
	cmov, err := full.Derive(CondMove, opts)
	if err != nil || cmov.Prog == full.Prog {
		t.Errorf("conditional-move form is not a converted clone: %v", err)
	}
	for _, bad := range []struct {
		from  *Formed
		model Model
	}{{sb, FullPred}, {sb, CondMove}, {full, Superblock}, {cmov, FullPred}, {full, Model(42)}} {
		if _, err := bad.from.Derive(bad.model, opts); err == nil {
			t.Errorf("derived %v code from a %v form", bad.model, bad.from.Model)
		}
	}
}
