package guardinstr_test

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/progen"
)

// TestGuardModelSemantics: the guard-instruction pipeline must preserve
// every kernel's checksum.
func TestGuardModelSemantics(t *testing.T) {
	for _, k := range bench.All() {
		ref, err := emu.Run(k.Build(), emu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(k.Build(), core.GuardInstr, core.DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		run, err := emu.Run(c.Prog, emu.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if run.Word(bench.CheckAddr) != ref.Word(bench.CheckAddr) {
			t.Errorf("%s: checksum mismatch", k.Name)
		}
	}
}

// TestLowerStructure checks the lowering invariants directly.
func TestLowerStructure(t *testing.T) {
	k, _ := bench.ByName("wc")
	c, err := core.Compile(k.Build(), core.GuardInstr, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatal(err)
	}
	guards := 0
	for _, f := range c.Prog.Funcs {
		for _, b := range f.LiveBlocks(nil) {
			covered := 0
			var guard ir.PReg
			for _, in := range b.Instrs {
				if in.Op == ir.GuardApply {
					if covered != 0 {
						t.Fatalf("nested guard run in B%d", b.ID)
					}
					covered = int(in.A.Imm)
					guard = in.Guard
					guards++
					continue
				}
				if covered > 0 {
					if in.Guard != guard {
						t.Fatalf("guard mismatch inside run: %v under %v", in, guard)
					}
					covered--
					if in.Op.IsBranch() && covered != 0 {
						t.Fatalf("branch inside a guard run must terminate it: %v", in)
					}
				} else if in.Guard != ir.PNone {
					t.Fatalf("guarded instruction outside any run: %v", in)
				}
			}
			if covered != 0 {
				t.Fatalf("guard run overruns block B%d", b.ID)
			}
		}
	}
	if guards == 0 {
		t.Fatal("no guard instructions inserted for an if-converted kernel")
	}
}

// TestGuardModelCost: dynamic instruction count sits between full
// predication and conditional move (the spectrum the paper describes).
func TestGuardModelCost(t *testing.T) {
	k, _ := bench.ByName("wc")
	counts := map[core.Model]int64{}
	for _, m := range []core.Model{core.CondMove, core.FullPred, core.GuardInstr} {
		c, err := core.Compile(k.Build(), m, core.DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatal(err)
		}
		run, err := emu.Run(c.Prog, emu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		counts[m] = run.Steps
	}
	if !(counts[core.FullPred] < counts[core.GuardInstr]) {
		t.Errorf("guard model must execute more than full predication: %v", counts)
	}
	if !(counts[core.GuardInstr] < counts[core.CondMove]) {
		t.Errorf("guard model must execute less than conditional move: %v", counts)
	}
}

// TestGuardModelRandomPrograms fuzzes the fourth pipeline.
func TestGuardModelRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		src := progen.Generate(seed, progen.Default())
		ref, _ := emu.Run(src, emu.Options{})
		c, err := core.Compile(progen.Generate(seed, progen.Default()), core.GuardInstr,
			core.DefaultOptions(machine.Issue8Br1()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := emu.Run(c.Prog, emu.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Word(progen.CheckAddr) != ref.Word(progen.CheckAddr) {
			t.Errorf("seed %d: semantics changed", seed)
		}
	}
}
