package submit

import (
	"strings"
	"testing"

	"predication/internal/asm"
	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/machine"
	"predication/internal/progen"
)

// minimal is the smallest useful submission: computes into the checksum
// word and halts.
const minimal = `.mem 64
.entry 0
func F0 main:
B0:
	mov r1, 37
	store 0, 8, r1
	halt
`

// spinner never halts: the step-quota buster.
const spinner = `.mem 64
.entry 0
func F0 main:
B0:
	jump B0
`

func TestAdmitMinimal(t *testing.T) {
	p, rej := Admit(minimal, Limits{})
	if rej != nil {
		t.Fatalf("minimal program refused: %v", rej)
	}
	if p.Instrs != 3 {
		t.Errorf("instrs = %d, want 3", p.Instrs)
	}
	if len(p.Digest) != 64 {
		t.Errorf("digest %q is not a sha256 hex", p.Digest)
	}
	if _, err := asm.Parse(p.Canonical); err != nil {
		t.Errorf("canonical form does not reparse: %v", err)
	}
}

// TestCanonicalEquivalence: whitespace, comments, and trailing noise do
// not change the digest; a semantic change does.
func TestCanonicalEquivalence(t *testing.T) {
	base, rej := Admit(minimal, Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	noisy := "; a leading comment\n" +
		strings.ReplaceAll(minimal, "\tmov r1, 37", "   mov   r1,   37   ; trailing comment would not parse, spaces do") // note: only whitespace changes
	noisy = strings.ReplaceAll(noisy, " ; trailing comment would not parse, spaces do", "")
	same, rej := Admit(noisy, Limits{})
	if rej != nil {
		t.Fatalf("noisy variant refused: %v", rej)
	}
	if same.Digest != base.Digest {
		t.Errorf("whitespace/comment variant changed the digest:\n%q\n%q", base.Canonical, same.Canonical)
	}
	diff, rej := Admit(strings.ReplaceAll(minimal, "37", "38"), Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	if diff.Digest == base.Digest {
		t.Error("semantic change kept the digest")
	}
}

// TestAdmitLayers: each gate layer tags its refusal and maps to the
// documented status.
func TestAdmitLayers(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		lim    Limits
		layer  string
		status int
	}{
		{"oversized body", minimal, Limits{MaxBytes: 8}, LayerBody, 413},
		{"garbage", "not a program at all", Limits{}, LayerParse, 400},
		{"empty", "", Limits{}, LayerParse, 400},
		{"bad mnemonic", ".mem 64\nfunc F0 m:\nB0:\n\tfrobnicate r1\n", Limits{}, LayerParse, 400},
		{"too many instrs", minimal, Limits{MaxInstrs: 2}, LayerLimits, 413},
		{"mem quota", ".mem 1048577\nfunc F0 m:\nB0:\n\thalt\n", Limits{}, LayerLimits, 413},
		{"huge block id", ".mem 64\nfunc F0 m:\nB9999999:\n\thalt\n", Limits{}, LayerLimits, 413},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, rej := Admit(c.src, c.lim)
			if rej == nil {
				t.Fatal("admitted")
			}
			if rej.Layer != c.layer {
				t.Errorf("layer %q, want %q (%v)", rej.Layer, c.layer, rej)
			}
			if rej.Status() != c.status {
				t.Errorf("status %d, want %d", rej.Status(), c.status)
			}
			if strings.ContainsRune(rej.Error(), '\n') {
				t.Errorf("rejection is not one line: %q", rej.Error())
			}
		})
	}
}

// TestArtifactQuota: the spinner is refused by the profiling run's step
// quota as a 413, on every model.
func TestArtifactQuota(t *testing.T) {
	p, rej := Admit(spinner, Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	lim := Limits{MaxSteps: 10_000}
	for _, m := range []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr} {
		_, rej := p.Artifact(m, machine.Issue8Br1(), lim)
		if rej == nil {
			t.Fatalf("%v: spinner compiled", m)
		}
		if rej.Layer != LayerQuota || rej.Status() != 413 {
			t.Errorf("%v: layer %q status %d, want quota/413 (%v)", m, rej.Layer, rej.Status(), rej)
		}
	}
}

// TestArtifactTrap: a program that traps is an execute-layer 422.
func TestArtifactTrap(t *testing.T) {
	src := ".mem 64\n.entry 0\nfunc F0 main:\nB0:\n\tmov r1, 0\n\tdiv r2, r1, r1\n\thalt\n"
	p, rej := Admit(src, Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	_, rej = p.Artifact(core.Superblock, machine.Issue8Br1(), Limits{})
	if rej == nil {
		t.Fatal("trapping program compiled and ran")
	}
	if rej.Layer != LayerExecute || rej.Status() != 422 {
		t.Errorf("layer %q status %d, want execute/422 (%v)", rej.Layer, rej.Status(), rej)
	}
}

// TestArtifactMeasure: an admitted program compiles under all four
// models and measures to the same checksum each time, with the step
// quota carried onto the artifact.
func TestArtifactMeasure(t *testing.T) {
	p, rej := Admit(asm.Format(progen.Generate(7, progen.Params{
		Diamonds: 2, BlockOps: 3, Iterations: 16, Regs: 4,
	})), Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	var sums []int64
	for _, m := range []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr} {
		art, rej := p.Artifact(m, machine.Issue8Br1(), Limits{})
		if rej != nil {
			t.Fatalf("%v: %v", m, rej)
		}
		if art.MaxSteps != DefaultLimits().MaxSteps {
			t.Errorf("%v: artifact quota %d, want %d", m, art.MaxSteps, DefaultLimits().MaxSteps)
		}
		ms, err := art.MeasureAll([]machine.Config{machine.Issue8Br1()}, true)
		if err != nil {
			t.Fatalf("%v: measure: %v", m, err)
		}
		meas := ms[0]
		if meas.Stats.Cycles <= 0 {
			t.Errorf("%v: empty stats", m)
		}
		if meas.Account == nil {
			t.Errorf("%v: no cycle account on observed measure", m)
		}
		sums = append(sums, meas.Checksum)
	}
	for _, s := range sums {
		if s != sums[0] {
			t.Errorf("checksums diverge across models: %v", sums)
		}
	}
}

// TestSmallMemoryChecksum: a program whose memory cannot hold the
// checksum word measures with checksum 0 instead of panicking.
func TestSmallMemoryChecksum(t *testing.T) {
	src := ".mem 4\n.entry 0\nfunc F0 main:\nB0:\n\tmov r1, 1\n\thalt\n"
	p, rej := Admit(src, Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	art, rej := p.Artifact(core.Superblock, machine.Issue8Br1(), Limits{})
	if rej != nil {
		t.Fatal(rej)
	}
	ms, err := art.MeasureAll([]machine.Config{machine.Issue8Br1()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Checksum != 0 {
		t.Errorf("checksum %d, want 0 for out-of-image checksum word", ms[0].Checksum)
	}
}

// TestKernelSourcesAdmit: the formatted source of every built-in kernel
// passes the gate under default limits — users can submit what the
// paper runs.
func TestKernelSourcesAdmit(t *testing.T) {
	for _, k := range bench.All() {
		if _, rej := Admit(asm.Format(k.Build()), Limits{}); rej != nil {
			t.Errorf("%s: refused: %v", k.Name, rej)
		}
	}
}
