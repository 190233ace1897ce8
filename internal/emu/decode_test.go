package emu

import (
	"strings"
	"testing"

	"predication/internal/ir"
)

// mustDecodeErr asserts Decode rejects the program with an error carrying
// the given substring.
func mustDecodeErr(t *testing.T, p *ir.Program, want string) {
	t.Helper()
	_, err := Decode(p)
	if err == nil {
		t.Fatalf("Decode succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode error %q, want substring %q", err, want)
	}
}

func TestDecodeRejectsBadEntryFunction(t *testing.T) {
	p := ir.NewProgram(16)
	p.Entry = 3 // no such function
	mustDecodeErr(t, p, "entry function F3 out of range")
}

func TestDecodeRejectsBadEntryBlock(t *testing.T) {
	p := ir.NewProgram(16)
	f := ir.NewFunc("main")
	f.EntryBlock().Append(&ir.Instr{Op: ir.Halt})
	f.Entry = 9 // no such block
	p.AddFunc(f)
	mustDecodeErr(t, p, "entry block B9 out of range in main")
}

func TestDecodeRejectsUndefinedJSRTarget(t *testing.T) {
	p := ir.NewProgram(16)
	f := ir.NewFunc("main")
	b := f.EntryBlock()
	b.Append(&ir.Instr{Op: ir.JSR, Target: 7})
	b.Append(&ir.Instr{Op: ir.Halt})
	p.AddFunc(f)
	mustDecodeErr(t, p, "jsr to undefined function F7 in main B0[0]")
}

func TestDecodeRejectsEmptyBlockCycle(t *testing.T) {
	// Two empty blocks falling through to each other would spin forever at
	// run time; Decode rejects the program.
	p := ir.NewProgram(16)
	f := ir.NewFunc("main")
	b0 := f.EntryBlock()
	b1 := f.NewBlock()
	b0.Fall = b1.ID
	b1.Fall = b0.ID
	p.AddFunc(f)
	mustDecodeErr(t, p, "empty-block fall-through cycle")
}

func TestDecodeRejectsOversizedPredicateFile(t *testing.T) {
	p := ir.NewProgram(16)
	f := ir.NewFunc("main")
	f.EntryBlock().Append(&ir.Instr{Op: ir.Halt})
	f.NextPReg = 1 << 24
	p.AddFunc(f)
	mustDecodeErr(t, p, "packed PredDef slots hold 24 bits")
}

// TestRunTimeTransferErrorsSurviveDecode pins that dead-block transfers
// remain run-time errors, not decode rejections: the block may be
// dynamically unreachable.
func TestRunTimeTransferErrorsSurviveDecode(t *testing.T) {
	p := ir.NewProgram(16)
	f := ir.NewFunc("main")
	b0 := f.EntryBlock()
	dead := f.NewBlock()
	dead.Dead = true
	b0.Append(&ir.Instr{Op: ir.Jump, Target: dead.ID})
	p.AddFunc(f)

	if _, err := Run(p, Options{}); err == nil || err.Error() != "emu: transfer to dead block B1 in main" {
		t.Errorf("error = %v, want transfer to dead block B1", err)
	}

	// Falling off a block without a fallthrough successor.
	p2 := ir.NewProgram(16)
	f2 := ir.NewFunc("main")
	f2.EntryBlock().Append(&ir.Instr{Op: ir.Nop})
	p2.AddFunc(f2)
	if _, err := Run(p2, Options{}); err == nil || err.Error() != "emu: fell off end of block B0 in main" {
		t.Errorf("error = %v, want fell off end of block B0", err)
	}
}
