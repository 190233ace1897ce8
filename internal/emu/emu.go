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

// Event is one dynamic instruction in the trace.
type Event struct {
	In *ir.Instr
	// ID is the instruction's index in the program's static layout order
	// (ir.Program.ForEachInstr), so ID*ir.InstrBytes == In.Addr once
	// addresses are assigned.  Sinks use it to index pre-decoded
	// per-instruction tables instead of hashing In.
	ID    int32
	Addr  int32 // memory word address touched by Load/Store, else 0
	Flags uint8
}

// Nullified reports whether the instruction was suppressed by its guard.
func (e Event) Nullified() bool { return e.Flags&FlagNullified != 0 }

// Taken reports whether a control transfer redirected fetch.
func (e Event) Taken() bool { return e.Flags&FlagTaken != 0 }

// A TraceSink consumes the dynamic instruction stream as the emulator
// produces it, one Event per fetched instruction in program order.  It is
// how the timing simulator (sim.Simulator) overlaps with emulation without
// the run ever materializing the trace: memory stays O(1) in the dynamic
// instruction count instead of O(n).  Event values share the underlying
// *ir.Instr with the emulator; sinks must not retain or modify it beyond
// the fields of the Event itself.
type TraceSink interface {
	Event(ev Event)
}

// BatchSink is an optional TraceSink extension.  The fast interpreter
// detects it and delivers events in buffered batches (in stream order,
// with a final flush before Run returns) instead of one interface call
// per step; a sink that processes events cheaply should implement it.
// The batch slice is reused between calls: sinks must not retain it.
type BatchSink interface {
	TraceSink
	EventBatch(evs []Event)
}

// SliceSink is the materializing TraceSink: it collects every event into
// Events, reproducing the Trace option's []Event for consumers that need
// random access (stage dumps, ablation benches, differential tests).
type SliceSink struct {
	Events []Event
}

// Event appends ev to the slice.
func (s *SliceSink) Event(ev Event) { s.Events = append(s.Events, ev) }

// FanoutSink replicates the event stream to several sinks, so one
// emulation pass can feed every simulator configuration of an experiment
// cell at once.
type FanoutSink []TraceSink

// Event forwards ev to every sink in order.
func (f FanoutSink) Event(ev Event) {
	for _, s := range f {
		s.Event(ev)
	}
}

// EventBatch implements BatchSink: batch-capable members receive the
// whole run at once, the rest get it one event at a time.
func (f FanoutSink) EventBatch(evs []Event) {
	for _, s := range f {
		if b, ok := s.(BatchSink); ok {
			b.EventBatch(evs)
		} else {
			for i := range evs {
				s.Event(evs[i])
			}
		}
	}
}

// Options configures an emulation run.
type Options struct {
	// Trace enables dynamic trace collection into Result.Trace.
	Trace bool
	// Sink, when non-nil, receives every dynamic instruction as it
	// executes.  Independent of Trace: setting only Sink streams the trace
	// without materializing it.
	Sink TraceSink
	// Profile, when non-nil, accumulates block and branch frequencies.
	Profile *cfg.Profile
	// MaxSteps bounds execution (0 means the 500M default).
	MaxSteps int64
}

const defaultMaxSteps = 500_000_000

// Result reports the outcome of an emulation run.
type Result struct {
	Trace []Event
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
