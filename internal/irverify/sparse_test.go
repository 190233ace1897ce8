package irverify_test

import (
	"fmt"
	"reflect"
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/ir"
	"predication/internal/irverify"
	"predication/internal/machine"
	"predication/internal/progen"
)

// TestSparseDefBeforeUse holds the sparse def-before-use analysis to the
// dense reference (dense_test.go): identical diagnostics — code,
// location, message and order — on the program after every pipeline
// stage of every kernel under every model, on every stage of random flat
// and nested programs, and on seeded mutations of each of those programs
// that drop one defining instruction.
func TestSparseDefBeforeUse(t *testing.T) {
	kernels := bench.All()
	nRandom := uint64(100)
	if testing.Short() {
		kernels = kernels[:3]
		nRandom = 10
	}
	var programs, withDiags int
	check := func(what string, p *ir.Program) {
		t.Helper()
		programs++
		sparse, dense := irverify.DefUseDiags(p, false), irverify.DefUseDiags(p, true)
		if len(dense) > 0 {
			withDiags++
		}
		if !reflect.DeepEqual(sparse, dense) {
			t.Errorf("%s: sparse diagnostics differ from the dense reference\nsparse: %v\ndense:  %v", what, sparse, dense)
		}
	}
	// mutate checks two seeded mutations of p, each without one of its
	// defining instructions.
	rng := uint64(1)
	mutate := func(what string, p *ir.Program) {
		t.Helper()
		type site struct{ f, b, i int }
		var defs []site
		for fi, f := range p.Funcs {
			for _, b := range f.LiveBlocks(nil) {
				for i, in := range b.Instrs {
					if in.DefReg() != ir.RNone || in.Op == ir.PredDef || in.Op == ir.PredClear || in.Op == ir.PredSet {
						defs = append(defs, site{fi, b.ID, i})
					}
				}
			}
		}
		for n := 0; n < 2 && len(defs) > 0; n++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			s := defs[(rng>>33)%uint64(len(defs))]
			q := p.Clone()
			b := q.Funcs[s.f].Blocks[s.b]
			b.Instrs = append(b.Instrs[:s.i:s.i], b.Instrs[s.i+1:]...)
			check(fmt.Sprintf("%s without F%d B%d[%d]", what, s.f, s.b, s.i), q)
		}
	}
	stages := func(name string, src *ir.Program) {
		t.Helper()
		check(name+" source", src)
		mutate(name+" source", src)
		for _, m := range []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr} {
			opts := core.DefaultOptions(machine.Issue8Br1())
			opts.StageHook = func(stage string, p *ir.Program) {
				what := fmt.Sprintf("%s %v after %s", name, m, stage)
				check(what, p)
				mutate(what, p)
			}
			if _, err := core.Compile(src, m, opts); err != nil {
				t.Fatalf("%s %v: %v", name, m, err)
			}
		}
	}
	for _, k := range kernels {
		stages(k.Name, k.Build())
	}
	for seed := uint64(1); seed <= nRandom; seed++ {
		stages(fmt.Sprintf("progen %d", seed), progen.Generate(seed, progen.Default()))
		stages(fmt.Sprintf("progen nested %d", seed), progen.GenerateNested(seed, progen.Default()))
	}
	if withDiags == 0 {
		t.Fatalf("none of %d programs drew a diagnostic: the mutations test nothing", programs)
	}
	t.Logf("%d programs, %d with diagnostics", programs, withDiags)
}
