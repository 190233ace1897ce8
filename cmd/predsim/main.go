// Command predsim compiles and simulates one benchmark kernel under a
// chosen predication model and machine configuration, optionally dumping
// the compiled code — the workhorse for inspecting what each pipeline
// does.
//
// Usage:
//
//	predsim -bench wc -model full -machine issue8-br1 [-dump] [-stages]
//	predsim -file prog.psasm -model cmov
//	predsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"predication/internal/asm"
	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sched"
	"predication/internal/sim"
)

func main() {
	if err := safeRun(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "predsim:", err)
		os.Exit(1)
	}
}

// safeRun converts a panic anywhere in the compile/simulate path into an
// ordinary one-line error, so the command never dies with a stack trace.
func safeRun(args []string, out io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	return run(args, out)
}

// countingSink tallies dynamic executions per static instruction.
type countingSink map[*ir.Instr]int

func (c countingSink) Event(ev emu.Event) { c[ev.In]++ }

// run parses args, compiles the selected program under the selected model,
// simulates it, and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("predsim", flag.ContinueOnError)
	fs.SetOutput(out)
	name := fs.String("bench", "wc", "benchmark kernel name")
	file := fs.String("file", "", "compile and run a .psasm program instead of a benchmark (see docs/ISA.md and internal/asm)")
	modelName := fs.String("model", "full", "model: superblock | cmov | full | guard")
	machName := fs.String("machine", "issue8-br1", "machine: issue1 | issue4-br1 | issue8-br1 | issue8-br2 | issue8-br1-64k")
	dump := fs.Bool("dump", false, "dump the compiled program")
	stages := fs.Bool("stages", false, "dump the program after every pipeline stage")
	schedule := fs.Bool("schedule", false, "print the hottest block with issue cycles (the paper's Figure 5/6 presentation)")
	verify := fs.Bool("verify", false, "run the structural IR verifier after every pipeline stage")
	predictorName := fs.String("predictor", "btb", "branch direction predictor: btb | gshare")
	window := fs.Int("window", 0, "out-of-order instruction-window size (0 = in-order issue, the paper's machine)")
	breakdown := fs.Bool("breakdown", false, "print the stall-cycle breakdown and instruction mix (see docs/OBSERVABILITY.md)")
	statsJSON := fs.String("stats-json", "", "write the full report as JSON to this file (- for stdout)")
	traceOut := fs.String("trace-out", "", "write a structured trace of the dynamic instruction stream to this file")
	traceFormat := fs.String("trace-format", "chrome", "trace encoding: chrome | jsonl")
	traceSample := fs.Int64("trace-sample", 1, "keep one of every N trace events")
	traceLimit := fs.Int64("trace-limit", 0, "stop emitting trace records after N (0 = unlimited)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the compile+emulate+simulate run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	list := fs.Bool("list", false, "list benchmark kernels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject out-of-range sampling parameters up front: a zero or negative
	// sample rate would otherwise be silently clamped to 1, and a negative
	// limit would mean "unlimited" by accident.
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample %d: sampling rate must be at least 1 (keep one of every N events)", *traceSample)
	}
	if *traceLimit < 0 {
		return fmt.Errorf("-trace-limit %d: record limit cannot be negative (0 = unlimited)", *traceLimit)
	}

	if *list {
		for _, k := range bench.All() {
			fmt.Fprintf(out, "%-14s %s\n", k.Name, k.Paper)
		}
		return nil
	}

	var build func() *ir.Program
	label := *name
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		prog, err := asm.Parse(string(src))
		if err != nil {
			return err
		}
		build = prog.Clone
		label = *file
	} else {
		k, err := bench.ByName(*name)
		if err != nil {
			return err
		}
		build = k.Build
	}

	model, err := core.ParseModel(*modelName)
	if err != nil {
		return err
	}
	mc, err := machine.ByName(*machName)
	if err != nil {
		return err
	}
	switch *predictorName {
	case "btb":
	case "gshare":
		mc.Gshare = true
	default:
		return fmt.Errorf("unknown predictor %q (want btb or gshare)", *predictorName)
	}
	if *window < 0 {
		return fmt.Errorf("-window %d: window size cannot be negative (0 = in-order)", *window)
	}
	if *window > 0 {
		mc.OoO = true
		mc.WindowSize = *window
		mc.Name += fmt.Sprintf("+ooo%d", *window)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	opts := core.DefaultOptions(mc)
	opts.VerifyStages = *verify
	if *stages {
		opts.StageHook = func(stage string, p *ir.Program) {
			fmt.Fprintf(out, "=== after %s (%d instructions) ===\n%s\n", stage, p.NumInstrs(), p)
		}
	}
	pipe := obs.NewPipelineTrace()
	opts.Pipeline = pipe
	c, err := core.Compile(build(), model, opts)
	if err != nil {
		return err
	}
	if *dump {
		fmt.Fprint(out, c.Prog.String())
	}

	// Stream the emulation into the timing simulator — and, for -schedule,
	// a per-instruction frequency counter; for -trace-out, the structured
	// trace writer — without materializing the trace.
	s := sim.NewTiming(c.Prog, mc)
	var acct *obs.CycleAccount
	if *breakdown || *statsJSON != "" {
		acct = &obs.CycleAccount{}
		s.Instrument(acct)
	}
	sinks := emu.FanoutSink{s}
	var counts countingSink
	if *schedule {
		counts = countingSink{}
		sinks = append(sinks, counts)
	}
	var tracer *obs.TraceWriter
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer, err = obs.NewTraceWriter(tf, obs.TraceOptions{
			Format: obs.TraceFormat(*traceFormat),
			Sample: *traceSample,
			Limit:  *traceLimit,
		})
		if err != nil {
			return err
		}
		sinks = append(sinks, tracer)
	}
	var sink emu.TraceSink = s
	if len(sinks) > 1 {
		sink = sinks
	}
	runRes, err := emu.Run(c.Prog, emu.Options{Sink: sink})
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	st := s.Stats()
	if acct != nil {
		if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
			return err
		}
	}
	if *schedule {
		// The hottest block: largest contribution to the trace.
		var best *ir.Block
		bestN := -1
		for _, fn := range c.Prog.Funcs {
			for _, blk := range fn.LiveBlocks(nil) {
				n := 0
				for _, in := range blk.Instrs {
					n += counts[in]
				}
				if n > bestN {
					best, bestN = blk, n
				}
			}
		}
		if best != nil {
			fmt.Fprintf(out, "hottest block B%d (%s), schedule on %s:\n%s\n",
				best.ID, best.Name, mc.Name, sched.FormatSchedule(best, mc))
		}
	}

	// With -stats-json - the JSON document owns stdout; the human report
	// would corrupt it for the jq pipelines the flag exists for.
	if *statsJSON != "-" {
		printReport(out, label, model, mc, runRes, st, acct, tracer, *traceOut, *breakdown)
	}
	if *statsJSON != "" {
		rep := statsReport{
			Program:   label,
			Model:     model.String(),
			Machine:   obs.MachineMetaOf(mc),
			Checksum:  runRes.Word(bench.CheckAddr),
			Stats:     st,
			IPC:       st.IPC(),
			UsefulIPC: st.UsefulIPC(),
			Breakdown: &acct.Breakdown,
			Mix:       acct.Mix(),
			Pipeline:  pipe,
		}
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *statsJSON == "-" {
			_, err = out.Write(data)
			return err
		}
		return os.WriteFile(*statsJSON, data, 0o644)
	}
	return nil
}

func printReport(out io.Writer, label string, model core.Model, mc machine.Config,
	runRes *emu.Result, st sim.Stats, acct *obs.CycleAccount, tracer *obs.TraceWriter,
	traceOut string, breakdown bool) {
	fmt.Fprintf(out, "program:        %s\n", label)
	fmt.Fprintf(out, "model:          %v\n", model)
	fmt.Fprintf(out, "machine:        %s\n", mc.Name)
	if mc.Gshare {
		fmt.Fprintf(out, "predictor:      gshare\n")
	}
	if mc.OoO {
		fmt.Fprintf(out, "window:         %d entries (out-of-order issue)\n", mc.WindowSize)
	}
	fmt.Fprintf(out, "checksum:       %#x\n", runRes.Word(bench.CheckAddr))
	fmt.Fprintf(out, "cycles:         %d\n", st.Cycles)
	fmt.Fprintf(out, "dyn. instrs:    %d (nullified %d)\n", st.Instrs, st.Nullified)
	fmt.Fprintf(out, "IPC:            %.2f (useful %.2f)\n", st.IPC(), st.UsefulIPC())
	fmt.Fprintf(out, "branches:       %d (cond %d)\n", st.Branches, st.CondBranches)
	fmt.Fprintf(out, "mispredicts:    %d (%.2f%%)\n", st.Mispredicts, 100*st.MispredictRate())
	if !mc.PerfectCache {
		fmt.Fprintf(out, "icache misses:  %d\n", st.ICacheMisses)
		fmt.Fprintf(out, "dcache misses:  %d\n", st.DCacheMisses)
	}
	if breakdown {
		fmt.Fprintf(out, "\ncycle breakdown (%d cycles):\n", st.Cycles)
		for c := obs.Cause(0); c < obs.NumCauses; c++ {
			if acct.Breakdown[c] == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-14s %12d  %5.1f%%\n",
				c.String(), acct.Breakdown[c], 100*float64(acct.Breakdown[c])/float64(st.Cycles))
		}
		fmt.Fprintf(out, "instruction mix:\n")
		for _, me := range acct.Mix() {
			fmt.Fprintf(out, "  %-14s %12d  (nullified %d)\n", me.Class, me.Fetched, me.Nullified)
		}
	}
	if traceOut != "" {
		fmt.Fprintf(out, "trace:          %s (%d records of %d steps)\n",
			traceOut, tracer.Emitted(), tracer.Steps())
	}
}

// statsReport is the -stats-json schema (documented in
// docs/OBSERVABILITY.md; keep the two in sync).
type statsReport struct {
	Program   string             `json:"program"`
	Model     string             `json:"model"`
	Machine   obs.MachineMeta    `json:"machine"`
	Checksum  int64              `json:"checksum"`
	Stats     sim.Stats          `json:"stats"`
	IPC       float64            `json:"ipc"`
	UsefulIPC float64            `json:"useful_ipc"`
	Breakdown *obs.Breakdown     `json:"breakdown"`
	Mix       []obs.MixEntry     `json:"mix"`
	Pipeline  *obs.PipelineTrace `json:"pipeline"`
}
