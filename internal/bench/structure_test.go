package bench

import (
	"testing"

	"predication/internal/cfg"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

// recorder collects the emulator's event stream.
type recorder struct{ evs []emu.Event }

func (r *recorder) EventBatch(evs []emu.Event) { r.evs = append(r.evs, evs...) }

// profileOf runs a kernel with profiling.  It returns the profile, the
// dynamic trace, and the static instructions indexed by event ID.
func profileOf(t *testing.T, p *ir.Program) (*cfg.Profile, []emu.Event, []*ir.Instr) {
	t.Helper()
	p.Normalize()
	prof := cfg.NewProfile()
	var rec recorder
	if _, err := emu.Run(p, emu.Options{Profile: prof, Sink: &rec}); err != nil {
		t.Fatal(err)
	}
	var instrs []*ir.Instr
	p.ForEachInstr(func(_ int, in *ir.Instr) { instrs = append(instrs, in) })
	return prof, rec.evs, instrs
}

// branchFraction computes the dynamic branch fraction of a trace.
func branchFraction(trace []emu.Event, instrs []*ir.Instr) float64 {
	br := 0
	for _, ev := range trace {
		if instrs[ev.ID].Op.IsBranch() {
			br++
		}
	}
	return float64(br) / float64(len(trace))
}

// TestWcCharacter: the paper describes wc as branch dominated ("an
// instruction stream consisting of 40% branches" motivates §1; the wc
// loop has 14 branches in 34 instructions).  Our kernel must be similarly
// branch heavy.
func TestWcCharacter(t *testing.T) {
	_, trace, instrs := profileOf(t, Wc().Build())
	if f := branchFraction(trace, instrs); f < 0.30 {
		t.Errorf("wc branch fraction %.2f, want >= 0.30", f)
	}
}

// TestGrepCharacter: grep's exits must be rarely taken (each below the
// branch-combining threshold) so the Figure 6 transformations apply.
func TestGrepCharacter(t *testing.T) {
	p := Grep().Build()
	prof, _, _ := profileOf(t, p)
	rare := 0
	for _, f := range p.Funcs {
		for _, b := range f.LiveBlocks(nil) {
			for _, in := range b.Instrs {
				if !in.Op.IsCondBranch() {
					continue
				}
				prob, n := prof.TakenProb(in)
				if n > 1000 && prob < 0.05 {
					rare++
				}
			}
		}
	}
	if rare < 4 {
		t.Errorf("grep needs several rarely-taken exits, found %d", rare)
	}
}

// TestFPKernelsAreBranchLight: alvinn and ear stand in for the paper's
// floating-point codes, where predication has little to work on.
func TestFPKernelsAreBranchLight(t *testing.T) {
	for _, k := range []*Kernel{Alvinn(), Ear()} {
		_, trace, instrs := profileOf(t, k.Build())
		if f := branchFraction(trace, instrs); f > 0.30 {
			t.Errorf("%s branch fraction %.2f, want light", k.Name, f)
		}
		// And they must actually use floating point.
		fp := 0
		for _, ev := range trace {
			if instrs[ev.ID].Op.IsFloat() {
				fp++
			}
		}
		if float64(fp)/float64(len(trace)) < 0.15 {
			t.Errorf("%s floating-point fraction too low", k.Name)
		}
	}
}

// TestQsortSorts: the qsort kernel must actually sort (the checksum would
// hide a broken partition only improbably, but check directly).
func TestQsortSorts(t *testing.T) {
	p := Qsort().Build()
	res, err := emu.Run(p, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The array lives at the first allocation (word 16), 600 words.
	prev := int64(-1)
	for i := int64(16); i < 16+600; i++ {
		if res.Word(i) < prev {
			t.Fatalf("array not sorted at %d: %d < %d", i, res.Word(i), prev)
		}
		prev = res.Word(i)
	}
}

// TestCompressTableExceedsCache: the Figure 11 compress effect requires a
// working set beyond the 64K data cache — observable as a high data-cache
// miss count even for the unoptimized program.
func TestCompressTableExceedsCache(t *testing.T) {
	p := Compress().Build()
	p.Normalize()
	p.AssignAddresses()
	s := sim.NewTiming(p, machine.Issue8Br1Cache())
	if _, err := emu.Run(p, emu.Options{Sink: s}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DCacheMisses < 1000 {
		t.Errorf("compress D-cache misses %d; the hash tables should not fit", st.DCacheMisses)
	}
}

// TestEqnFootprint: eqn's static code must be large (the I-cache story).
func TestEqnFootprint(t *testing.T) {
	p := Eqn().Build()
	if n := p.NumInstrs(); n < 8000 {
		t.Errorf("eqn static size %d instructions, want a large footprint", n)
	}
}

// TestScSerialChain: sc's accumulator must be written on (nearly) every
// iteration, giving the loop-carried chain that penalizes conditional
// moves.
func TestScSerialChain(t *testing.T) {
	_, trace, instrs := profileOf(t, Sc().Build())
	// Count writes to the accumulator register (r4 by construction order:
	// i, op, v, acc...).  Identify it as the most-written register.
	writes := map[ir.Reg]int{}
	for _, ev := range trace {
		if d := instrs[ev.ID].DefReg(); d != ir.RNone && !ev.Nullified() {
			writes[d]++
		}
	}
	max := 0
	for _, n := range writes {
		if n > max {
			max = n
		}
	}
	if max < 4000 {
		t.Errorf("sc accumulator written %d times, want >= one per iteration", max)
	}
}

// TestKernelNames: paper ordering and lookup.
func TestKernelNames(t *testing.T) {
	want := []string{"008.espresso", "022.li", "023.eqntott", "026.compress",
		"052.alvinn", "056.ear", "072.sc",
		"cccp", "cmp", "eqn", "grep", "lex", "qsort", "wc", "yacc"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d kernels", len(got))
	}
	for i, k := range got {
		if k.Name != want[i] {
			t.Errorf("kernel %d = %s, want %s", i, k.Name, want[i])
		}
		if k.Paper == "" {
			t.Errorf("%s: missing substitution description", k.Name)
		}
	}
	if _, err := ByName("wc"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown kernel accepted")
	}
}
