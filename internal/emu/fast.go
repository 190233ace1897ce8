package emu

import (
	"fmt"

	"predication/internal/ir"
)

// fast.go is the index-driven interpreter over the pre-decoded code array.
// The steady-state loop performs zero heap allocations per step: operands
// resolve through unconditional loads from the frame's extended register
// file (immediates live in pooled slots after the architectural
// registers), control flows through pre-resolved uop indices, and call
// frames are pooled (a Ret parks its frame; a later JSR at the same depth
// re-zeroes and reuses it).  Events are only built when a sink wants
// them, and the sink receives them in buffered batches, so there is no
// per-event interface call; profile counters live in dense arrays
// consulted off the no-profile path, and errors are the only other
// allocation sites — all off the hot path.

// fastFrame is one pooled call frame.
type fastFrame struct {
	fn     int32
	retUop int32 // JSR uop whose fall edge resumes the caller
	regs   []int64
	preds  []bool
}

// maxCallDepth bounds the number of saved callers.
const maxCallDepth = 1024

// eventBatchLen is the flush threshold of the sink's batches: big
// enough to amortize the per-batch dispatch, small enough that the buffer
// stays cache-resident while the sink re-reads it.
const eventBatchLen = 512

// newFrameRegs returns the extended register file for a frame entering
// fi: architectural registers zeroed, immediate pool copied into the
// tail slots.
func newFrameRegs(s []int64, fi *fnInfo) []int64 {
	s = resizeI64(s, fi.nTotal)
	copy(s[fi.nRegs:], fi.pool)
	return s
}

// Run executes the decoded program to completion (Halt).  Its emitted
// events and profile counts are pinned to the reference interpreter's by
// the golden files parity_test.go checks.
func (c *Code) Run(opts Options) (*Result, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	mem := make([]int64, c.prog.MemWords)
	copy(mem, c.prog.Data)
	res := &Result{Mem: mem}

	// The sink gets events in buffered runs.  The deferred flush covers
	// every return path, so the sink has seen the full stream (in order)
	// by the time Run's caller regains control.
	sink := opts.Sink
	var batch []Event
	if sink != nil {
		batch = make([]Event, 0, eventBatchLen)
		defer func() {
			if len(batch) > 0 {
				sink.EventBatch(batch)
			}
		}()
	}

	// Profile counters live in dense arrays during the run and are folded
	// back into the map-based cfg.Profile on exit (including error exits,
	// which leave partial counts).
	prof := opts.Profile
	var blockCount, fallExit, brTaken, brNotTaken []int64
	if prof != nil {
		blockCount = make([]int64, len(c.blocks))
		fallExit = make([]int64, len(c.blocks))
		brTaken = make([]int64, len(c.uops))
		brNotTaken = make([]int64, len(c.uops))
		defer func() {
			for i, n := range blockCount {
				if n != 0 {
					prof.BlockCount[c.blocks[i]] += n
				}
			}
			for i, n := range fallExit {
				if n != 0 {
					prof.FallExit[c.blocks[i]] += n
				}
			}
			for i, n := range brTaken {
				if n != 0 {
					prof.Taken[c.instrs[i]] += n
				}
			}
			for i, n := range brNotTaken {
				if n != 0 {
					prof.NotTaken[c.instrs[i]] += n
				}
			}
		}()
	}

	frames := make([]fastFrame, 1, 16)
	depth := 0
	entryFn := &c.fns[c.prog.Entry]
	frames[0] = fastFrame{
		fn:    int32(c.prog.Entry),
		regs:  newFrameRegs(nil, entryFn),
		preds: make([]bool, entryFn.nPreds),
	}
	regs, preds := frames[0].regs, frames[0].preds

	uops := c.uops
	var pc int32
	var errOut error
	// takeEdge traverses a resolved control edge: profile counters, then
	// either the destination pc or the edge's run-time error.
	takeEdge := func(e *edge) bool {
		if prof != nil {
			for _, b := range e.exits {
				fallExit[b]++
			}
			for _, b := range e.chain {
				blockCount[b]++
			}
		}
		if e.kind != edgeOK {
			errOut = c.edgeErr(e)
			return false
		}
		pc = e.pc
		return true
	}
	// slowFall advances through cur's fall-through when the inline path
	// cannot (profiling, or the edge errors).
	slowFall := func(cur int32) bool {
		ei := c.fall[cur]
		if ei < 0 {
			pc = uops[cur].fallPC
			return true
		}
		return takeEdge(&c.edges[ei])
	}

	if !takeEdge(&entryFn.entry) {
		return nil, errOut
	}

	var steps int64
	for {
		u := &uops[pc]
		steps++
		if steps > maxSteps {
			return nil, &StepLimitError{Limit: maxSteps}
		}
		var evAddr int32

		guardTrue := u.guard == 0 || preds[u.guard]
		// Predicate defines are special: their destination-update logic runs
		// regardless of the input predicate value (Table 1: Pin=0 rows).
		if !guardTrue && u.op != ir.PredDef {
			if sink != nil {
				batch = append(batch, Event{ID: pc, Flags: FlagNullified})
				if len(batch) == eventBatchLen {
					sink.EventBatch(batch)
					batch = batch[:0]
				}
			}
			if prof != nil {
				if u.flags&ufIsBr != 0 {
					brNotTaken[pc]++
				}
				if !slowFall(pc) {
					return nil, errOut
				}
			} else if fp := u.fallPC; fp >= 0 {
				pc = fp
			} else if !slowFall(pc) {
				return nil, errOut
			}
			continue
		}

		taken := false
		switch u.op {
		case ir.Nop, ir.GuardApply:
			// GuardApply is a timing artifact of the guard-instruction
			// model: the predicate semantics live in the Guard fields of
			// the covered instructions.
		case ir.Halt:
			if sink != nil {
				batch = append(batch, Event{ID: pc})
			}
			res.Steps = steps
			return res, nil
		case ir.Mov:
			regs[u.dst] = regs[u.a]
		case ir.Add:
			regs[u.dst] = regs[u.a] + regs[u.b]
		case ir.Sub:
			regs[u.dst] = regs[u.a] - regs[u.b]
		case ir.Mul:
			regs[u.dst] = regs[u.a] * regs[u.b]
		case ir.Div:
			d := regs[u.b]
			if d == 0 {
				if u.flags&ufSilent == 0 {
					return nil, c.execErr(pc, "divide by zero")
				}
				regs[u.dst] = 0
			} else {
				regs[u.dst] = regs[u.a] / d
			}
		case ir.Rem:
			d := regs[u.b]
			if d == 0 {
				if u.flags&ufSilent == 0 {
					return nil, c.execErr(pc, "divide by zero")
				}
				regs[u.dst] = 0
			} else {
				regs[u.dst] = regs[u.a] % d
			}
		case ir.And:
			regs[u.dst] = regs[u.a] & regs[u.b]
		case ir.Or:
			regs[u.dst] = regs[u.a] | regs[u.b]
		case ir.Xor:
			regs[u.dst] = regs[u.a] ^ regs[u.b]
		case ir.AndNot:
			regs[u.dst] = regs[u.a] &^ regs[u.b]
		case ir.OrNot:
			regs[u.dst] = regs[u.a] | ^regs[u.b]
		case ir.Shl:
			regs[u.dst] = regs[u.a] << uint64(regs[u.b]&63)
		case ir.Shr:
			regs[u.dst] = regs[u.a] >> uint64(regs[u.b]&63)
		case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
			ir.CmpEQF, ir.CmpNEF, ir.CmpLTF, ir.CmpLEF, ir.CmpGTF, ir.CmpGEF:
			regs[u.dst] = b2i(evalCmp(u.cmp, regs[u.a], regs[u.b]))
		case ir.AddF:
			regs[u.dst] = ir.F2I(ir.I2F(regs[u.a]) + ir.I2F(regs[u.b]))
		case ir.SubF:
			regs[u.dst] = ir.F2I(ir.I2F(regs[u.a]) - ir.I2F(regs[u.b]))
		case ir.MulF:
			regs[u.dst] = ir.F2I(ir.I2F(regs[u.a]) * ir.I2F(regs[u.b]))
		case ir.DivF:
			d := ir.I2F(regs[u.b])
			if d == 0 {
				if u.flags&ufSilent == 0 {
					return nil, c.execErr(pc, "floating divide by zero")
				}
				regs[u.dst] = 0
			} else {
				regs[u.dst] = ir.F2I(ir.I2F(regs[u.a]) / d)
			}
		case ir.AbsF:
			f := ir.I2F(regs[u.a])
			if f < 0 {
				f = -f
			}
			regs[u.dst] = ir.F2I(f)
		case ir.CvtIF:
			regs[u.dst] = ir.F2I(float64(regs[u.a]))
		case ir.CvtFI:
			regs[u.dst] = int64(ir.I2F(regs[u.a]))
		case ir.Load:
			a := regs[u.a] + regs[u.b]
			if a < 0 || a >= int64(len(mem)) {
				if u.flags&ufSilent == 0 {
					return nil, c.execErr(pc, fmt.Sprintf("illegal load address %d", a))
				}
				regs[u.dst] = 0
			} else {
				regs[u.dst] = mem[a]
				evAddr = int32(a)
			}
		case ir.Store:
			a := regs[u.a] + regs[u.b]
			if a < 0 || a >= int64(len(mem)) {
				return nil, c.execErr(pc, fmt.Sprintf("illegal store address %d", a))
			}
			mem[a] = regs[u.c]
			evAddr = int32(a)
		case ir.Jump:
			taken = true
		case ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
			taken = evalCmp(u.cmp, regs[u.a], regs[u.b])
		case ir.JSR:
			taken = true
		case ir.Ret:
			taken = true
		case ir.PredDef:
			pin := guardTrue
			cmp := evalCmp(u.cmp, regs[u.a], regs[u.b])
			pd := u.pdef
			if t := ir.PredType(pd >> 56); t != ir.PredNone {
				if v, written := t.Eval(pin, cmp); written {
					preds[(pd>>32)&0xffffff] = v
				}
			}
			if t := ir.PredType(pd >> 24 & 0xff); t != ir.PredNone {
				if v, written := t.Eval(pin, cmp); written {
					preds[pd&0xffffff] = v
				}
			}
		case ir.PredClear:
			for i := range preds {
				preds[i] = false
			}
		case ir.PredSet:
			for i := range preds {
				preds[i] = true
			}
		case ir.CMov:
			if regs[u.c] != 0 {
				regs[u.dst] = regs[u.a]
			}
		case ir.CMovCom:
			if regs[u.c] == 0 {
				regs[u.dst] = regs[u.a]
			}
		case ir.Select:
			if regs[u.c] != 0 {
				regs[u.dst] = regs[u.a]
			} else {
				regs[u.dst] = regs[u.b]
			}
		default:
			return nil, c.execErr(pc, "unimplemented opcode")
		}

		if prof != nil && u.flags&ufIsBr != 0 {
			if taken {
				brTaken[pc]++
			} else {
				brNotTaken[pc]++
			}
		}
		if sink != nil {
			var fl uint8
			if taken {
				fl = FlagTaken
			}
			batch = append(batch, Event{ID: pc, Addr: evAddr, Flags: fl})
			if len(batch) == eventBatchLen {
				sink.EventBatch(batch)
				batch = batch[:0]
			}
		}

		if taken {
			switch u.op {
			case ir.JSR:
				if depth >= maxCallDepth {
					return nil, c.execErr(pc, "call stack overflow")
				}
				callee := c.meta[pc].target
				fi := &c.fns[callee]
				retU := pc
				depth++
				if depth == len(frames) {
					frames = append(frames, fastFrame{})
				}
				fr := &frames[depth]
				fr.fn = callee
				fr.retUop = retU
				fr.regs = newFrameRegs(fr.regs, fi)
				fr.preds = resizeBool(fr.preds, fi.nPreds)
				regs, preds = fr.regs, fr.preds
				if ep := fi.entryPC; ep >= 0 && prof == nil {
					pc = ep
				} else if !takeEdge(&fi.entry) {
					return nil, errOut
				}
			case ir.Ret:
				if depth == 0 {
					return nil, c.execErr(pc, "return with empty call stack")
				}
				retU := frames[depth].retUop
				depth--
				fr := &frames[depth]
				regs, preds = fr.regs, fr.preds
				if fp := uops[retU].fallPC; fp >= 0 && prof == nil {
					pc = fp
				} else if !slowFall(retU) {
					return nil, errOut
				}
			default:
				if tp := u.takenPC; tp >= 0 && prof == nil {
					pc = tp
				} else if !takeEdge(&c.edges[c.taken[pc]]) {
					return nil, errOut
				}
			}
			continue
		}
		if fp := u.fallPC; fp >= 0 && prof == nil {
			pc = fp
		} else if !slowFall(pc) {
			return nil, errOut
		}
	}
}

// execErr builds the ExecError for the uop at pc, located by function,
// block and instruction index.
func (c *Code) execErr(pc int32, msg string) error {
	m := &c.meta[pc]
	return &ExecError{
		Fn:    c.prog.Funcs[m.fn].Name,
		Block: int(m.blk),
		Index: int(m.idx),
		In:    c.instrs[pc],
		Msg:   msg,
	}
}

// resizeI64 returns s resized to n and zeroed, reusing its backing array
// when possible (frame pooling).
func resizeI64(s []int64, n int32) []int64 {
	if int(n) <= cap(s) {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]int64, n)
}

// resizeBool is resizeI64 for predicate files.
func resizeBool(s []bool, n int32) []bool {
	if int(n) <= cap(s) {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]bool, n)
}

// evalCmp is the hot-path comparison evaluator: the integer kinds inline
// into the dispatch loop; float kinds (and the invalid-kind panic) defer
// to ir.EvalCmp for identical semantics.
func evalCmp(c ir.Cmp, a, b int64) bool {
	switch c {
	case ir.EQ:
		return a == b
	case ir.NE:
		return a != b
	case ir.LT:
		return a < b
	case ir.LE:
		return a <= b
	case ir.GT:
		return a > b
	case ir.GE:
		return a >= b
	}
	return ir.EvalCmp(c, a, b)
}
