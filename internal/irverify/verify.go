// Package irverify is the structural IR verifier behind the compilation
// pipelines' correctness story.  Where ir.Verify stops at the first
// malformation with a plain error (the builder's contract), this package
// reports every violation it finds as a structured Diagnostic carrying pass
// provenance and an exact location, and it layers three deeper analyses on
// top of the basic shape checks:
//
//   - CFG invariants: live entry, no dangling branch or fallthrough edges,
//     every block either ends unconditionally or names a live fallthrough.
//   - Def-before-use: a forward may-reach dataflow over both register
//     files; an operand read with no reaching definition on any path is a
//     dropped-definition bug in whatever pass ran last.
//   - Per-model legality: the superblock and conditional-move pipelines
//     must emit no predicate constructs, full predication must not emit
//     guard instructions, and silent (non-excepting) variants are only
//     legal on opcodes that can except.
//
// Every pipeline runs the verifier after each stage behind
// core.Options.VerifyStages; the final model-legality pass runs on every
// compilation unconditionally.
package irverify

import (
	"fmt"
	"strings"

	"predication/internal/ir"
)

// Code classifies a diagnostic so tests and tools can match on the failure
// kind instead of the message text.
type Code string

// Diagnostic codes.
const (
	// EntryInvalid: the program or a function has a missing or dead entry.
	EntryInvalid Code = "entry-invalid"
	// NilInstr: a block contains a nil instruction pointer.
	NilInstr Code = "nil-instr"
	// DanglingEdge: a branch targets a missing or dead block.
	DanglingEdge Code = "dangling-edge"
	// MissingTerminator: a block that can fall through has no live
	// fallthrough successor.
	MissingTerminator Code = "missing-terminator"
	// BadCall: a JSR targets a function index outside the program.
	BadCall Code = "bad-call"
	// BadDst: an opcode's destination-register rule is violated, or the
	// destination is outside the allocated register space.
	BadDst Code = "bad-dst"
	// RegRange: a source register is outside the allocated register space.
	RegRange Code = "reg-range"
	// PredRange: a guard or predicate destination is outside the allocated
	// predicate register space.
	PredRange Code = "pred-range"
	// BadPredDest: a predicate define writes no destination or p_none.
	BadPredDest Code = "bad-pred-dest"
	// BadCmp: an invalid comparison kind.
	BadCmp Code = "bad-cmp"
	// BadGuardApply: a guard instruction without a predicate or with a
	// non-positive covered-instruction count.
	BadGuardApply Code = "bad-guard-apply"
	// SilentIllegal: the silent (non-excepting) flag on an opcode that
	// cannot except.
	SilentIllegal Code = "silent-illegal"
	// UseBeforeDef: an operand is read with no reaching definition on any
	// path from the function entry.
	UseBeforeDef Code = "use-before-def"
	// GuardIllegal: a predicate guard in the output of a model without
	// full predicate support.
	GuardIllegal Code = "guard-illegal"
	// OpcodeIllegal: an opcode the target model does not provide.
	OpcodeIllegal Code = "opcode-illegal"
	// DefineType: inconsistent U/OR/AND predicate define typing (an
	// OR-type accumulation without a pred_clear, an AND-type accumulation
	// without a pred_set, or one define writing a register twice).
	DefineType Code = "define-type"
)

// Model selects the predication-support legality rules.  It mirrors
// core.Model without importing it (core depends on this package).
type Model int

const (
	// AnyModel disables per-model legality checks (mid-pipeline programs
	// are fully predicated regardless of the eventual target).
	AnyModel Model = iota
	// Baseline is the superblock target: no predicate support at all.
	Baseline
	// CondMove allows conditional moves and selects but no predicate
	// registers, guards, or defines.
	CondMove
	// FullPred allows everything except prefix guard instructions.
	FullPred
	// GuardInstr allows the complete instruction set.
	GuardInstr
)

// String names the model.
func (m Model) String() string {
	switch m {
	case AnyModel:
		return "any"
	case Baseline:
		return "baseline"
	case CondMove:
		return "cmov"
	case FullPred:
		return "fullpred"
	case GuardInstr:
		return "guardinstr"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Diagnostic is one verification failure with pass provenance and an exact
// program location.
type Diagnostic struct {
	// Pass names the compilation stage that produced the program (empty
	// when unknown).
	Pass string
	// Code classifies the failure.
	Code Code
	// Func/FuncName locate the function (Func is -1 for program-level
	// diagnostics).
	Func     int
	FuncName string
	// Block is the block ID (-1 for function-level diagnostics); Index is
	// the instruction index within the block (-1 for block-level).
	Block int
	Index int
	// Instr is the formatted instruction, when the diagnostic names one.
	Instr string
	// Msg is the human-readable explanation.
	Msg string
}

// String formats the diagnostic as one line:
//
//	[schedule] use-before-def F0(main) B3[2] "add r9, r9, 1": source r9 has no reaching definition
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.Pass != "" {
		fmt.Fprintf(&sb, "[%s] ", d.Pass)
	}
	sb.WriteString(string(d.Code))
	if d.Func >= 0 {
		fmt.Fprintf(&sb, " F%d(%s)", d.Func, d.FuncName)
		if d.Block >= 0 {
			fmt.Fprintf(&sb, " B%d", d.Block)
			if d.Index >= 0 {
				fmt.Fprintf(&sb, "[%d]", d.Index)
			}
		}
	}
	if d.Instr != "" {
		fmt.Fprintf(&sb, " %q", d.Instr)
	}
	sb.WriteString(": ")
	sb.WriteString(d.Msg)
	return sb.String()
}

// Options configures a verification run.
type Options struct {
	// Pass is recorded as every diagnostic's provenance.
	Pass string
	// Model selects the legality rules; AnyModel checks structure only.
	Model Model
	// MaxDiags caps the report (0 means the default of 50).
	MaxDiags int
}

// Error converts a diagnostic list to a single error, or nil when the list
// is empty.  The first few diagnostics are included verbatim.
func Error(diags []Diagnostic) error {
	if len(diags) == 0 {
		return nil
	}
	const show = 4
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d IR verification diagnostic(s):", len(diags))
	for i, d := range diags {
		if i == show {
			fmt.Fprintf(&sb, "\n\t... and %d more", len(diags)-show)
			break
		}
		sb.WriteString("\n\t")
		sb.WriteString(d.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// Verify checks the whole program and returns every diagnostic found (up
// to Options.MaxDiags).
func Verify(p *ir.Program, opts Options) []Diagnostic {
	max := opts.MaxDiags
	if max <= 0 {
		max = 50
	}
	v := &verifier{p: p, opts: opts, max: max}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		v.add(Diagnostic{Code: EntryInvalid, Func: -1, Block: -1, Index: -1,
			Msg: fmt.Sprintf("program entry F%d out of range (%d functions)", p.Entry, len(p.Funcs))})
		return v.diags
	}
	for fi, f := range p.Funcs {
		v.fn(fi, f)
		if len(v.diags) >= v.max {
			break
		}
	}
	return v.diags
}

type verifier struct {
	p     *ir.Program
	opts  Options
	max   int
	diags []Diagnostic
}

func (v *verifier) add(d Diagnostic) {
	if len(v.diags) >= v.max {
		return
	}
	d.Pass = v.opts.Pass
	v.diags = append(v.diags, d)
}

// reporter records one diagnostic at a location of the function under
// verification: b is nil for function-level diagnostics, i is -1 for
// block-level ones.
type reporter func(b *ir.Block, i int, code Code, format string, args ...any)

// reporterFor returns the reporter for function fi.
func (v *verifier) reporterFor(fi int, f *ir.Func) reporter {
	return func(b *ir.Block, i int, code Code, format string, args ...any) {
		d := Diagnostic{Code: code, Func: fi, FuncName: f.Name, Block: -1, Index: -1,
			Msg: fmt.Sprintf(format, args...)}
		if b != nil {
			d.Block = b.ID
			d.Index = i
			if i >= 0 && i < len(b.Instrs) && b.Instrs[i] != nil {
				d.Instr = b.Instrs[i].String()
			}
		}
		v.add(d)
	}
}

func (v *verifier) fn(fi int, f *ir.Func) {
	at := v.reporterFor(fi, f)
	if f.Entry < 0 || f.Entry >= len(f.Blocks) || f.Blocks[f.Entry] == nil || f.Blocks[f.Entry].Dead {
		at(nil, -1, EntryInvalid, "entry block B%d missing or dead", f.Entry)
		return
	}
	live := func(id int) bool {
		return id >= 0 && id < len(f.Blocks) && f.Blocks[id] != nil && !f.Blocks[id].Dead
	}

	// Nil instructions make every downstream walk unsafe; report them and
	// stop analysing this function.
	hasNil := false
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		for i, in := range b.Instrs {
			if in == nil {
				at(b, -1, NilInstr, "nil instruction at index %d", i)
				hasNil = true
			}
		}
	}
	if hasNil {
		return
	}

	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		for i, in := range b.Instrs {
			v.instr(f, b, i, in, at)
		}
		if !b.EndsUnconditionally() && !live(b.Fall) {
			at(b, -1, MissingTerminator,
				"block can fall through but fallthrough B%d is missing or dead", b.Fall)
		}
	}
	v.defineTypes(f, at)
	v.defBeforeUse(f, at)
}

// instr checks one instruction's structural and model-legality rules.
func (v *verifier) instr(f *ir.Func, b *ir.Block, i int, in *ir.Instr, at reporter) {
	live := func(id int) bool {
		return id >= 0 && id < len(f.Blocks) && f.Blocks[id] != nil && !f.Blocks[id].Dead
	}
	switch {
	case in.Op == ir.Jump || in.Op.IsCondBranch():
		if !live(in.Target) {
			at(b, i, DanglingEdge, "branch to missing/dead block B%d", in.Target)
		}
	case in.Op == ir.JSR:
		if in.Target < 0 || in.Target >= len(v.p.Funcs) {
			at(b, i, BadCall, "call to missing function F%d", in.Target)
		}
	case in.Op == ir.GuardApply:
		if in.Guard == ir.PNone {
			at(b, i, BadGuardApply, "guard instruction without a predicate")
		}
		if !in.A.IsImm || in.A.Imm < 1 {
			at(b, i, BadGuardApply, "guard instruction needs a positive covered-instruction count")
		}
	case in.Op == ir.PredDef:
		if in.P1.Type == ir.PredNone && in.P2.Type == ir.PredNone {
			at(b, i, BadPredDest, "predicate define with no destinations")
		}
		for _, pd := range []ir.PredDest{in.P1, in.P2} {
			if pd.Type != ir.PredNone && pd.P == ir.PNone {
				at(b, i, BadPredDest, "predicate define writes p_none")
			}
		}
		if !in.Cmp.Valid() {
			at(b, i, BadCmp, "invalid comparison kind %d", uint8(in.Cmp))
		}
	}
	if in.Op.HasDst() && in.Dst == ir.RNone {
		at(b, i, BadDst, "%s requires a destination register", in.Op)
	}
	if !in.Op.HasDst() && in.Dst != ir.RNone {
		at(b, i, BadDst, "%s must not write a register", in.Op)
	}
	if in.Dst != ir.RNone && in.Dst >= f.NextReg {
		at(b, i, BadDst, "destination %s beyond allocated registers", in.Dst)
	}
	for _, o := range []ir.Operand{in.A, in.B, in.C} {
		if o.IsReg() && o.R >= f.NextReg {
			at(b, i, RegRange, "source %s beyond allocated registers", o.R)
		}
	}
	if in.Guard != ir.PNone && in.Guard >= f.NextPReg {
		at(b, i, PredRange, "guard %s beyond allocated predicate registers", in.Guard)
	}
	for _, pd := range []ir.PredDest{in.P1, in.P2} {
		if pd.Type != ir.PredNone && pd.P >= f.NextPReg {
			at(b, i, PredRange, "predicate destination %s beyond allocated predicate registers", pd.P)
		}
	}
	if in.Silent && !in.Op.CanExcept() {
		at(b, i, SilentIllegal, "silent flag on non-excepting opcode %s", in.Op)
	}

	// Per-model legality: what each pipeline's lowering must have removed.
	switch v.opts.Model {
	case Baseline, CondMove:
		if in.Guard != ir.PNone {
			at(b, i, GuardIllegal, "predicate guard %s in %s output", in.Guard, v.opts.Model)
		}
		switch in.Op {
		case ir.PredDef, ir.PredClear, ir.PredSet, ir.GuardApply:
			at(b, i, OpcodeIllegal, "%s is not available on the %s model", in.Op, v.opts.Model)
		}
	case FullPred:
		if in.Op == ir.GuardApply {
			at(b, i, OpcodeIllegal, "guard instructions are not part of the full-predication model")
		}
	}
}

// defineTypes checks U/OR/AND predicate define-type consistency: OR-type
// accumulation targets must be cleared by a pred_clear in the same
// function, AND-type targets set by a pred_set, and a single define must
// not write one register through both destination slots.
func (v *verifier) defineTypes(f *ir.Func, at reporter) {
	hasClear, hasSet := false, false
	type site struct {
		b *ir.Block
		i int
	}
	var firstOr, firstAnd *site
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		for i, in := range b.Instrs {
			if in == nil {
				continue
			}
			switch in.Op {
			case ir.PredClear:
				hasClear = true
			case ir.PredSet:
				hasSet = true
			case ir.PredDef:
				if in.P1.Type != ir.PredNone && in.P2.Type != ir.PredNone && in.P1.P == in.P2.P {
					at(b, i, DefineType, "both destinations write %s", in.P1.P)
				}
				for _, pd := range []ir.PredDest{in.P1, in.P2} {
					if pd.Type.NeedsClear() && firstOr == nil {
						firstOr = &site{b, i}
					}
					if pd.Type.NeedsSet() && firstAnd == nil {
						firstAnd = &site{b, i}
					}
				}
			}
		}
	}
	if firstOr != nil && !hasClear {
		at(firstOr.b, firstOr.i, DefineType,
			"OR-type define target is never initialized by a pred_clear in this function")
	}
	if firstAnd != nil && !hasSet {
		at(firstAnd.b, firstAnd.i, DefineType,
			"AND-type define target is never initialized by a pred_set in this function")
	}
}

// defBeforeUse runs a forward may-reach definition analysis over both
// register files and flags reads with no reaching definition on any path —
// the signature of a pass that dropped or reordered a definition.
//
// The analysis is deliberately a MAY analysis: predicated and speculative
// code legitimately reads registers whose definitions are conditional, so
// one defining path suffices.  Two deliberate exclusions keep it sound:
// the conditional self-read of cmov/cmov_com (the commit idiom reads a
// destination that may have no earlier definition), and anything in a
// function whose registers are out of range (already diagnosed).
//
// A read can fail only if its block has not defined the register before
// it (the read is upward-exposed), so the dataflow ranges over the
// registers and predicates upward-exposed in some block alone — registers
// first, then predicates — the restriction cfg.ComputeLiveness makes.
// Formation leaves thousands of registers that live inside one block;
// with the per-block sets in one flat array, the pass is linear in the
// listing.  The caller has ruled out nil instructions.
func (v *verifier) defBeforeUse(f *ir.Func, at reporter) {
	nReg, nPreg := int(f.NextReg), int(f.NextPReg)
	if nReg <= 0 || nPreg <= 0 {
		return
	}
	blocks := f.LiveBlocks(nil)
	if len(blocks) == 0 {
		return
	}
	d := numberExposed(blocks, nReg, nPreg)
	w := len(d.allPreds)
	if w == 0 {
		return // every read follows a definition in its own block
	}

	// gen holds each block's definitions in the index space (out = in |
	// gen: a may analysis never kills) and in the union of its
	// predecessors' outs; block ID b's sets are words [b*w, (b+1)*w).
	n := len(f.Blocks)
	gen, in := make([]uint64, n*w), make([]uint64, n*w)
	preds := make([][]int32, n) // over live blocks
	var succs []int
	for _, b := range blocks {
		for _, ins := range b.Instrs {
			d.define(ins, gen[b.ID*w:(b.ID+1)*w])
		}
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			if s >= 0 && s < n && f.Blocks[s] != nil && !f.Blocks[s].Dead {
				preds[s] = append(preds[s], int32(b.ID))
			}
		}
	}

	// Iterate to fixpoint: in[b] = union of out[pred]; entry starts empty.
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			dst := in[b.ID*w : (b.ID+1)*w]
			for _, p := range preds[b.ID] {
				pin, pgen := in[int(p)*w:int(p+1)*w], gen[int(p)*w:int(p+1)*w]
				for j := range dst {
					if n := dst[j] | pin[j] | pgen[j]; n != dst[j] {
						dst[j] = n
						changed = true
					}
				}
			}
		}
	}

	// Report pass: walk each block with the running set, checking reads
	// before applying the instruction's definitions.
	cur := make([]uint64, w)
	var srcBuf [4]ir.Reg
	for _, b := range blocks {
		copy(cur, in[b.ID*w:(b.ID+1)*w])
		for i, ins := range b.Instrs {
			if g := ins.Guard; g != ir.PNone && uint(g) < uint(nPreg) {
				if x := d.predIx[g]; x >= 0 && !has(cur, d.nRegs+int(x)) {
					at(b, i, UseBeforeDef, "guard %s has no reaching definition", g)
				}
			}
			for _, r := range readRegs(ins, srcBuf[:0]) {
				if uint(r) < uint(nReg) {
					if x := d.regIx[r]; x >= 0 && !has(cur, int(x)) {
						at(b, i, UseBeforeDef, "source %s has no reaching definition", r)
					}
				}
			}
			d.define(ins, cur)
		}
	}
}

// readRegs appends the registers defBeforeUse checks an instruction
// reads: its sources, except the conditional self-read of cmov/cmov_com.
func readRegs(in *ir.Instr, dst []ir.Reg) []ir.Reg {
	if !in.ConditionalDef() {
		return in.SrcRegs(dst)
	}
	if in.A.IsReg() {
		dst = append(dst, in.A.R)
	}
	if in.C.IsReg() {
		dst = append(dst, in.C.R)
	}
	return dst
}

func has(s []uint64, i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func set(s []uint64, i int)      { s[i/64] |= 1 << uint(i%64) }

// exposed numbers the registers and predicates some block reads before
// defining them: regIx and predIx map a register to its index (-1 when
// no read of it is upward-exposed); predicate indexes follow the nRegs
// register indexes in a set.
type exposed struct {
	regIx, predIx []int32
	nRegs, nPreds int
	allPreds      []uint64 // every predicate index: a pred_clear's definitions
}

// numberExposed walks each block forward, stamping every definition with
// the block's ID, so a read is upward-exposed when its register carries
// no stamp of the current block.  Reads happen before writes within one
// instruction, and a pred_clear or pred_set defines every predicate.
func numberExposed(blocks []*ir.Block, nReg, nPreg int) *exposed {
	d := &exposed{regIx: make([]int32, nReg), predIx: make([]int32, nPreg)}
	// The index arrays double as stamps until numbering: a definition
	// stores -(block ID+1), an upward-exposed read 1.
	rstamp, pstamp := d.regIx, d.predIx
	var srcBuf [4]ir.Reg
	for _, b := range blocks {
		stamp := int32(-(b.ID + 1))
		allPreds := false
		for _, in := range b.Instrs {
			if g := in.Guard; g != ir.PNone && uint(g) < uint(nPreg) && !allPreds && pstamp[g] != stamp {
				pstamp[g] = 1
			}
			for _, r := range readRegs(in, srcBuf[:0]) {
				if uint(r) < uint(nReg) && rstamp[r] != stamp {
					rstamp[r] = 1
				}
			}
			switch in.Op {
			case ir.PredClear, ir.PredSet:
				allPreds = true
			case ir.PredDef:
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if pd.Type != ir.PredNone && pd.P != ir.PNone && uint(pd.P) < uint(nPreg) && pstamp[pd.P] != 1 {
						pstamp[pd.P] = stamp
					}
				}
			}
			if r := in.DefReg(); r != ir.RNone && uint(r) < uint(nReg) && rstamp[r] != 1 {
				rstamp[r] = stamp
			}
		}
	}
	for r, s := range rstamp {
		if s == 1 {
			rstamp[r] = int32(d.nRegs)
			d.nRegs++
		} else {
			rstamp[r] = -1
		}
	}
	for p, s := range pstamp {
		if s == 1 {
			pstamp[p] = int32(d.nPreds)
			d.nPreds++
		} else {
			pstamp[p] = -1
		}
	}
	d.allPreds = make([]uint64, (d.nRegs+d.nPreds+63)/64)
	for x := 0; x < d.nPreds; x++ {
		set(d.allPreds, d.nRegs+x)
	}
	return d
}

// define applies one instruction's definitions to a set in the index
// space.
func (d *exposed) define(in *ir.Instr, s []uint64) {
	switch in.Op {
	case ir.PredClear, ir.PredSet:
		for j, m := range d.allPreds {
			s[j] |= m
		}
	case ir.PredDef:
		for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
			if pd.Type != ir.PredNone && pd.P != ir.PNone && uint(pd.P) < uint(len(d.predIx)) {
				if x := d.predIx[pd.P]; x >= 0 {
					set(s, d.nRegs+int(x))
				}
			}
		}
	}
	if r := in.DefReg(); r != ir.RNone && uint(r) < uint(len(d.regIx)) {
		if x := d.regIx[r]; x >= 0 {
			set(s, int(x))
		}
	}
}
