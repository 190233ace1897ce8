// Package emu implements the functional emulator for the predicated IR.
//
// The paper evaluates its designs by emulation-driven simulation: benchmark
// code compiled for each predication model is emulated to produce a dynamic
// trace (instructions, predicate values, memory addresses, branch
// directions), which is then fed to the timing simulator (internal/sim).
// The original study emulated on an HP PA-RISC host using bit-manipulation
// sequences (Figure 7); here the IR is interpreted directly, with exact
// Table-1 semantics for predicate defines.
//
// The interpreter pre-decodes the program once into a flat micro-op array
// (see decode.go) and executes it with an index-driven dispatch loop that
// allocates nothing per step (fast.go).  docs/PERFORMANCE.md describes the
// layout.
package emu

import (
	"fmt"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// Event flags.
const (
	// FlagNullified marks an instruction whose guard predicate was false:
	// it was fetched (and consumes issue bandwidth in the simulator) but did
	// not modify processor state.
	FlagNullified uint8 = 1 << iota
	// FlagTaken marks a control transfer that redirected fetch.
	FlagTaken
)

// Event is one dynamic instruction in the trace: which static instruction
// ran, the memory word it touched and whether it was nullified or redirected
// fetch.  Sinks look up anything else about the instruction by ID.
type Event struct {
	// ID is the instruction's index in the program's static layout order
	// (ir.Program.ForEachInstr), so ID*ir.InstrBytes is its code address
	// once addresses are assigned.  Sinks use it to index pre-decoded
	// per-instruction tables.
	ID    int32
	Addr  int32 // memory word address touched by Load/Store, else 0
	Flags uint8
}

// Nullified reports whether the instruction was suppressed by its guard.
func (e Event) Nullified() bool { return e.Flags&FlagNullified != 0 }

// Taken reports whether a control transfer redirected fetch.
func (e Event) Taken() bool { return e.Flags&FlagTaken != 0 }

// A BatchSink consumes the dynamic instruction stream as the emulator
// produces it, in program order, in batches of up to 512 events with a
// final flush before Run returns.  It is how the timing simulator
// (sim.Gang) overlaps with emulation without the run ever materializing
// the trace: memory stays O(1) in the dynamic instruction count.  The
// batch slice is reused between calls: sinks must not retain it.
type BatchSink interface {
	EventBatch(evs []Event)
}

// FanoutSink replicates the event stream to several sinks, so one
// emulation pass can feed every consumer of a run at once.
type FanoutSink []BatchSink

// EventBatch forwards the batch to every sink in order.
func (f FanoutSink) EventBatch(evs []Event) {
	for _, s := range f {
		s.EventBatch(evs)
	}
}

// Options configures an emulation run.
type Options struct {
	// Sink, when non-nil, receives every dynamic instruction as it
	// executes.
	Sink BatchSink
	// Profile, when non-nil, accumulates block and branch frequencies.
	Profile *cfg.Profile
	// MaxSteps bounds execution (0 means the 500M default).
	MaxSteps int64
}

const defaultMaxSteps = 500_000_000

// Result reports the outcome of an emulation run.
type Result struct {
	Mem   []int64
	Steps int64
}

// Word returns the final contents of a memory word.
func (r *Result) Word(addr int64) int64 { return r.Mem[addr] }

// StepLimitError reports a run refused for exceeding Options.MaxSteps.
// It is a typed error (rather than the historical fmt.Errorf) so callers
// metering untrusted programs — the submission gate maps it to a quota
// rejection — can classify it without string matching; the message is
// unchanged.
type StepLimitError struct {
	Limit int64
}

// Error keeps the historical one-line message.
func (e *StepLimitError) Error() string {
	return fmt.Sprintf("emu: exceeded step limit %d", e.Limit)
}

// ExecError is a program-terminating exception raised during emulation
// (illegal memory address or divide by zero on a non-silent instruction).
type ExecError struct {
	Fn    string
	Block int
	Index int
	In    *ir.Instr
	Msg   string
}

// Error formats the exception with its location and instruction.
func (e *ExecError) Error() string {
	return fmt.Sprintf("emu: %s in %s B%d[%d]: %s", e.Msg, e.Fn, e.Block, e.Index, e.In)
}

// Run emulates the program to completion (Halt) and returns the result: it
// decodes p into a flat micro-op array and executes that.  Callers that
// emulate the same program repeatedly should Decode once and call Code.Run.
func Run(p *ir.Program, opts Options) (*Result, error) {
	code, err := Decode(p)
	if err != nil {
		return nil, err
	}
	return code.Run(opts)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
