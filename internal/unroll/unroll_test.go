package unroll_test

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/progen"
	"predication/internal/unroll"
)

// TestUnrollSemanticsKernels: unrolled pipelines preserve every kernel's
// checksum under every model and factors 2 and 4.
func TestUnrollSemanticsKernels(t *testing.T) {
	for _, k := range bench.All() {
		if testing.Short() && k.Name != "cmp" && k.Name != "wc" {
			continue
		}
		ref, err := emu.Run(k.Build(), emu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Word(bench.CheckAddr)
		for _, factor := range []int{2, 4} {
			for _, m := range []core.Model{core.Superblock, core.CondMove, core.FullPred} {
				opts := core.DefaultOptions(machine.Issue8Br1())
				opts.Unroll.Factor = factor
				c, err := core.Compile(k.Build(), m, opts)
				if err != nil {
					t.Fatalf("%s %v U=%d: %v", k.Name, m, factor, err)
				}
				res, err := emu.Run(c.Prog, emu.Options{})
				if err != nil {
					t.Fatalf("%s %v U=%d: %v", k.Name, m, factor, err)
				}
				if got := res.Word(bench.CheckAddr); got != want {
					t.Errorf("%s %v U=%d: checksum %#x, want %#x", k.Name, m, factor, got, want)
				}
			}
		}
	}
}

// TestUnrollRandomPrograms fuzzes the standalone pass.
func TestUnrollRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, gen := range []func(uint64, progen.Params) interface {
			Verify() error
		}{} {
			_ = gen
		}
		check := func(build func() interface {
			Verify() error
		}) {
			_ = build
		}
		_ = check
		// Plain generator.
		ref, _ := emu.Run(progen.Generate(seed, progen.Default()), emu.Options{})
		p := progen.Generate(seed, progen.Default())
		p.Normalize()
		prof := cfg.NewProfile()
		emu.Run(p, emu.Options{Profile: prof})
		params := unroll.DefaultParams()
		params.Factor = 3
		params.MaxBodyInstrs = 1 << 10
		params.MinCount = 1
		unroll.Apply(p, prof, params)
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := emu.Run(p, emu.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Word(progen.CheckAddr) != ref.Word(progen.CheckAddr) {
			t.Errorf("seed %d: unrolling changed semantics", seed)
		}
		// Nested generator: only the inner loop unrolls.
		ref2, _ := emu.Run(progen.GenerateNested(seed, progen.Default()), emu.Options{})
		p2 := progen.GenerateNested(seed, progen.Default())
		p2.Normalize()
		prof2 := cfg.NewProfile()
		emu.Run(p2, emu.Options{Profile: prof2})
		unroll.Apply(p2, prof2, params)
		if err := p2.Verify(); err != nil {
			t.Fatalf("seed %d nested: %v", seed, err)
		}
		got2, err := emu.Run(p2, emu.Options{})
		if err != nil {
			t.Fatalf("seed %d nested: %v", seed, err)
		}
		if got2.Word(progen.CheckAddr) != ref2.Word(progen.CheckAddr) {
			t.Errorf("seed %d: nested unrolling changed semantics", seed)
		}
	}
}

// recorder collects the emulator's event stream.
type recorder struct{ evs []emu.Event }

func (r *recorder) EventBatch(evs []emu.Event) { r.evs = append(r.evs, evs...) }

// TestUnrollAmortizesBranches: unrolling cmp cuts its dynamic branch count
// further (one loop branch per U words instead of per 8).
func TestUnrollAmortizesBranches(t *testing.T) {
	k, _ := bench.ByName("cmp")
	count := func(factor int) int64 {
		opts := core.DefaultOptions(machine.Issue8Br1())
		opts.Unroll.Factor = factor
		c, err := core.Compile(k.Build(), core.FullPred, opts)
		if err != nil {
			t.Fatal(err)
		}
		var rec recorder
		if _, err := emu.Run(c.Prog, emu.Options{Sink: &rec}); err != nil {
			t.Fatal(err)
		}
		var ops []ir.Op
		c.Prog.ForEachInstr(func(_ int, in *ir.Instr) { ops = append(ops, in.Op) })
		br := int64(0)
		for _, ev := range rec.evs {
			if ops[ev.ID].IsBranch() && !ev.Nullified() {
				br++
			}
		}
		return br
	}
	base := count(1)
	unrolled := count(2)
	if unrolled >= base {
		t.Errorf("unrolling did not reduce branches: %d -> %d", base, unrolled)
	}
}
