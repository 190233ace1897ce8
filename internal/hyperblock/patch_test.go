package hyperblock

import (
	"fmt"
	"slices"
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/progen"
)

// graphDiff describes the first difference between a patched graph and a
// fresh build of the same function: successor or predecessor lists (order
// included) or reachability of any block.
func graphDiff(g *cfg.Graph) string {
	want := cfg.NewGraph(g.F)
	if len(g.Succs) != len(want.Succs) || len(g.Preds) != len(want.Preds) {
		return fmt.Sprintf("graph covers %d blocks, function has %d", len(g.Succs), len(want.Succs))
	}
	for id := range want.Succs {
		switch {
		case !slices.Equal(g.Succs[id], want.Succs[id]):
			return fmt.Sprintf("B%d succs %v, want %v", id, g.Succs[id], want.Succs[id])
		case !slices.Equal(g.Preds[id], want.Preds[id]):
			return fmt.Sprintf("B%d preds %v, want %v", id, g.Preds[id], want.Preds[id])
		case g.Reachable(id) != want.Reachable(id):
			return fmt.Sprintf("B%d reachable %v, want %v", id, g.Reachable(id), want.Reachable(id))
		}
	}
	return ""
}

// patchCorpus returns the programs the patching properties run over: all
// fifteen kernels, then 100 flat and 100 nested progen programs.
func patchCorpus() []func() *ir.Program {
	var progs []func() *ir.Program
	for _, k := range bench.All() {
		progs = append(progs, k.Build)
	}
	for seed := uint64(1); seed <= 100; seed++ {
		progs = append(progs,
			func() *ir.Program { return progen.Generate(seed, progen.Default()) },
			func() *ir.Program { return progen.GenerateNested(seed, progen.Default()) })
	}
	return progs
}

// TestPatchedGraphMatchesRebuild: formation patches one CFG through every
// tail duplication and if-conversion, rebuilding it only once per round;
// after each step the patched graph must equal a fresh build.
func TestPatchedGraphMatchesRebuild(t *testing.T) {
	steps := 0
	var failure string
	checkStep = func(g *cfg.Graph) {
		steps++
		if d := graphDiff(g); d != "" && failure == "" {
			failure = fmt.Sprintf("%s after step %d: %s", g.F.Name, steps, d)
		}
	}
	defer func() { checkStep = nil }()
	for i, build := range patchCorpus() {
		p := build()
		p.Normalize()
		prof := cfg.NewProfile()
		if _, err := emu.Run(p, emu.Options{Profile: prof}); err != nil {
			t.Fatalf("program %d: profile: %v", i, err)
		}
		if _, err := Form(p, prof, DefaultParams()); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if failure != "" {
			t.Fatalf("program %d: %s", i, failure)
		}
	}
	if steps == 0 {
		t.Fatal("formation took no steps")
	}
	t.Logf("%d steps checked", steps)
}
