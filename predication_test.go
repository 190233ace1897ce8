package predication

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/ir"
	"predication/internal/sched"
)

// TestFacade exercises the public API end to end on one kernel.
func TestFacade(t *testing.T) {
	k, err := bench.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(k.Build(), FullPred, Issue8Br1())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(c.Prog, Issue8Br1())
	run, err := RunInto(c.Prog, s)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cycles == 0 || st.Instrs == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if plain, err := Run(c.Prog); err != nil || plain.Steps != run.Steps || st.Instrs != run.Steps {
		t.Fatalf("Run: %v; %d steps, RunInto %d steps, simulator saw %d", err, plain.Steps, run.Steps, st.Instrs)
	}
	if len(Benchmarks()) != 15 {
		t.Errorf("benchmark count %d, want 15", len(Benchmarks()))
	}
}

// TestPaperShapes asserts the qualitative results of the paper's
// evaluation on a representative subset (kept small so the test stays
// fast; the full suite runs under -bench and in cmd/figures):
//
//   - full predication beats the superblock baseline on the
//     control-intensive benchmarks (Figure 8);
//   - conditional move falls between superblock and full predication for
//     the branch-bound benchmarks, and BELOW superblock for the
//     072.sc-style dependence-chain benchmark (the paper's anomaly);
//   - predicated models execute more dynamic instructions, with the
//     conditional-move model hit hardest (Table 2);
//   - predicated models execute far fewer branches (Table 3);
//   - grep's misprediction RATE rises under the predicated models due to
//     branch combining (the Table 3 anomaly).
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second evaluation")
	}
	s, err := RunExperiments(experiments.Options{
		Kernels: []string{"wc", "grep", "cmp", "023.eqntott", "072.sc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*experiments.BenchResult{}
	for _, r := range s.Results {
		byName[r.Name] = r
	}
	cfg := "issue8-br1"

	for _, name := range []string{"wc", "grep", "cmp", "023.eqntott"} {
		r := byName[name]
		sb := r.Speedup(core.Superblock, cfg)
		cm := r.Speedup(core.CondMove, cfg)
		fp := r.Speedup(core.FullPred, cfg)
		if !(fp > sb) {
			t.Errorf("%s: full predication (%.2f) must beat superblock (%.2f)", name, fp, sb)
		}
		if !(fp > cm) {
			t.Errorf("%s: full predication (%.2f) must beat conditional move (%.2f)", name, fp, cm)
		}
		if !(cm > sb) {
			t.Errorf("%s: conditional move (%.2f) should beat superblock (%.2f)", name, cm, sb)
		}
	}
	// 072.sc: the conditional-move anomaly (lengthened dependence chains).
	sc := byName["072.sc"]
	if cm, sb := sc.Speedup(core.CondMove, cfg), sc.Speedup(core.Superblock, cfg); cm >= sb {
		t.Errorf("072.sc: conditional move (%.2f) should fall below superblock (%.2f)", cm, sb)
	}
	if fp, sb := sc.Speedup(core.FullPred, cfg), sc.Speedup(core.Superblock, cfg); fp < sb {
		t.Errorf("072.sc: full predication (%.2f) should not fall below superblock (%.2f)", fp, sb)
	}

	// Table 2 shape: CondMove executes the most instructions.
	for _, r := range s.Results {
		sb := r.Stat(core.Superblock, cfg).Instrs
		cm := r.Stat(core.CondMove, cfg).Instrs
		fp := r.Stat(core.FullPred, cfg).Instrs
		if cm < fp || fp < sb*9/10 {
			t.Errorf("%s: instruction counts out of shape sb=%d fp=%d cm=%d", r.Name, sb, fp, cm)
		}
	}

	// Table 3 shape: branch elimination.
	for _, name := range []string{"wc", "grep", "cmp"} {
		r := byName[name]
		sb := r.Stat(core.Superblock, cfg).Branches
		fp := r.Stat(core.FullPred, cfg).Branches
		if fp*2 > sb {
			t.Errorf("%s: predication should remove >half the branches (%d -> %d)", name, sb, fp)
		}
	}
	// grep misprediction-rate anomaly.
	g := byName["grep"]
	if mprSB, mprFP := g.Stat(core.Superblock, cfg).MispredictRate(),
		g.Stat(core.FullPred, cfg).MispredictRate(); mprFP <= mprSB {
		t.Errorf("grep: combined-branch MPR (%.3f) should exceed superblock's (%.3f)", mprFP, mprSB)
	}

	// Figure 11 shape: real caches shrink every model's speedup.
	for _, r := range s.Results {
		for _, m := range experiments.Models {
			perfect := r.Speedup(m, "issue8-br1")
			cached := r.Speedup(m, "issue8-br1-64k")
			if cached > perfect*1.05 {
				t.Errorf("%s/%v: cache model sped things up (%.2f -> %.2f)", r.Name, m, perfect, cached)
			}
		}
	}
}

// TestFigure9Shape: with two branch slots the superblock baseline catches
// up, so the conditional-move advantage shrinks (Figure 9's message).
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second evaluation")
	}
	s, err := RunExperiments(experiments.Options{
		Kernels: []string{"wc", "grep", "cmp", "023.eqntott"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Results {
		sb1 := r.Speedup(core.Superblock, "issue8-br1")
		sb2 := r.Speedup(core.Superblock, "issue8-br2")
		if sb2 < sb1 {
			t.Errorf("%s: superblock must not slow down with more branch slots (%.2f -> %.2f)", r.Name, sb1, sb2)
		}
		// The predicated models barely use branch slots, so their gain from
		// a second slot is small.
		fp1 := r.Speedup(core.FullPred, "issue8-br1")
		fp2 := r.Speedup(core.FullPred, "issue8-br2")
		gainSB := sb2 - sb1
		gainFP := fp2 - fp1
		if gainFP > gainSB+0.2 {
			t.Errorf("%s: full predication gained more from branch slots (%.2f) than superblock (%.2f)",
				r.Name, gainFP, gainSB)
		}
	}
}

// TestFigure5ScheduleLengths pins the paper's headline worked example: the
// wc loop schedules in 8 cycles under full predication and 10 under
// conditional move on the 4-issue, 1-branch machine (§3.3).
func TestFigure5ScheduleLengths(t *testing.T) {
	k, _ := bench.ByName("wc")
	mc := Issue4Br1()
	lengths := map[core.Model]int{}
	for _, m := range []core.Model{core.CondMove, core.FullPred} {
		c, err := Compile(k.Build(), m, mc)
		if err != nil {
			t.Fatal(err)
		}
		f := c.Prog.EntryFunc()
		var hot *ir.Block
		for _, b := range f.LiveBlocks(nil) {
			if hot == nil || len(b.Instrs) > len(hot.Instrs) {
				hot = b
			}
		}
		cyc := sched.IssueCycles(hot, mc)
		lengths[m] = cyc[len(cyc)-1] + 1
	}
	if lengths[core.FullPred] != 8 {
		t.Errorf("full predication wc loop: %d cycles, the paper's Figure 5 shows 8", lengths[core.FullPred])
	}
	// The paper reports 10 cycles for the conditional-move loop; our
	// peephole (complement normalization) shaves one more, so accept 9-10
	// while still requiring the full-vs-partial gap.
	if cm := lengths[core.CondMove]; cm < 9 || cm > 10 {
		t.Errorf("conditional move wc loop: %d cycles, the paper reports 10", cm)
	}
}
