// Package asm provides a textual serialization of IR programs: Format
// renders a complete, round-trippable listing (directives + the same
// assembly syntax internal/ir prints), and Parse reads it back.
//
// The format lets predsim execute hand-written programs, makes compiled
// code diffable, and gives the test suite a strong round-trip invariant:
// Parse(Format(p)) emulates identically to p for every compiled benchmark.
//
//	.mem 65536
//	.entry 0
//	.data 16: 104 101 108 108 111
//	func F0 main:
//	B0:
//		mov r1, 0
//		pred_eq p1_OR, p3_U~, r4, 0 (p2)
//		load_s r2, r1, 16
//		guard p5, 2
//		add r7, r7, 1 (p5)
//		blt r2, r3, B5 (p1)
//		jump B1
//		; fall B2
package asm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"predication/internal/ir"
)

// Format renders the program as parseable text.
func Format(p *ir.Program) string { return string(AppendFormat(nil, p)) }

// AppendFormat appends Format's text to dst and returns the extended
// slice.  The listing renders into the one buffer: no per-instruction or
// per-word formatting call, and no intermediate strings.
func AppendFormat(dst []byte, p *ir.Program) []byte {
	size := 32 + 8*len(p.Data)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b != nil {
				size += 16 + 24*len(b.Instrs)
			}
		}
	}
	dst = slices.Grow(dst, size)
	dst = strconv.AppendInt(append(dst, ".mem "...), int64(p.MemWords), 10)
	dst = strconv.AppendInt(append(dst, "\n.entry "...), int64(p.Entry), 10)
	dst = append(dst, '\n')
	// Data in runs of nonzero words.
	i := 0
	for i < len(p.Data) {
		if p.Data[i] == 0 {
			i++
			continue
		}
		dst = strconv.AppendInt(append(dst, ".data "...), int64(i), 10)
		dst = append(dst, ':')
		for ; i < len(p.Data) && p.Data[i] != 0; i++ {
			dst = strconv.AppendInt(append(dst, ' '), p.Data[i], 10)
		}
		dst = append(dst, '\n')
	}
	for fi, f := range p.Funcs {
		dst = strconv.AppendInt(append(dst, "func F"...), int64(fi), 10)
		dst = append(append(append(dst, ' '), f.Name...), ":\n"...)
		if f.Entry != 0 {
			dst = strconv.AppendInt(append(dst, ".fentry "...), int64(f.Entry), 10)
			dst = append(dst, '\n')
		}
		for _, b := range f.Blocks {
			if b == nil || b.Dead {
				continue
			}
			dst = strconv.AppendInt(append(dst, 'B'), int64(b.ID), 10)
			dst = append(dst, ':')
			if b.Name != "" {
				dst = append(append(dst, " ; "...), b.Name...)
			}
			dst = append(dst, '\n')
			for _, in := range b.Instrs {
				dst = append(dst, '\t')
				if in == nil {
					dst = append(dst, "<nil>"...) // as fmt renders a nil *ir.Instr
				} else {
					dst = in.AppendTo(dst)
				}
				dst = append(dst, '\n')
			}
			if !b.EndsUnconditionally() && b.Fall >= 0 {
				dst = strconv.AppendInt(append(dst, "\t; fall B"...), int64(b.Fall), 10)
				dst = append(dst, '\n')
			}
		}
	}
	return dst
}

// opTable maps mnemonics (without the _s silent suffix) to opcodes for
// every opcode the parser accepts in generic three-operand form or with a
// dedicated rule.
var opTable = map[string]ir.Op{
	"nop": ir.Nop, "halt": ir.Halt, "mov": ir.Mov,
	"add": ir.Add, "sub": ir.Sub, "mul": ir.Mul, "div": ir.Div, "rem": ir.Rem,
	"and": ir.And, "or": ir.Or, "xor": ir.Xor,
	"and_not": ir.AndNot, "or_not": ir.OrNot, "shl": ir.Shl, "shr": ir.Shr,
	"eq": ir.CmpEQ, "ne": ir.CmpNE, "lt": ir.CmpLT, "le": ir.CmpLE,
	"gt": ir.CmpGT, "ge": ir.CmpGE,
	"add_f": ir.AddF, "sub_f": ir.SubF, "mul_f": ir.MulF, "div_f": ir.DivF,
	"abs_f": ir.AbsF, "cvt_if": ir.CvtIF, "cvt_fi": ir.CvtFI,
	"eq_f": ir.CmpEQF, "ne_f": ir.CmpNEF, "lt_f": ir.CmpLTF,
	"le_f": ir.CmpLEF, "gt_f": ir.CmpGTF, "ge_f": ir.CmpGEF,
	"load": ir.Load, "store": ir.Store,
	"jump": ir.Jump, "beq": ir.BrEQ, "bne": ir.BrNE, "blt": ir.BrLT,
	"ble": ir.BrLE, "bgt": ir.BrGT, "bge": ir.BrGE,
	"jsr": ir.JSR, "ret": ir.Ret,
	"pred_clear": ir.PredClear, "pred_set": ir.PredSet,
	"cmov": ir.CMov, "cmov_com": ir.CMovCom, "select": ir.Select,
	"guard": ir.GuardApply,
}

var cmpTable = map[string]ir.Cmp{
	"eq": ir.EQ, "ne": ir.NE, "lt": ir.LT, "le": ir.LE, "gt": ir.GT, "ge": ir.GE,
	"eq_f": ir.EQF, "ne_f": ir.NEF, "lt_f": ir.LTF, "le_f": ir.LEF,
	"gt_f": ir.GTF, "ge_f": ir.GEF,
}

var typeTable = map[string]ir.PredType{
	"U": ir.PredU, "U~": ir.PredUBar,
	"OR": ir.PredOR, "OR~": ir.PredORBar,
	"AND": ir.PredAND, "AND~": ir.PredANDBar,
}

// parser carries parse state.
type parser struct {
	p       *ir.Program
	f       *ir.Func
	b       *ir.Block
	line    int
	lim     Limits
	instrs  int
	maxReg  map[*ir.Func]ir.Reg
	maxPReg map[*ir.Func]ir.PReg
}

func (ps *parser) errf(format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s", ps.line, fmt.Sprintf(format, args...))
}

// Parse reads a program from its textual form under the trusted-input
// sanity bounds of DefaultLimits.
func Parse(src string) (*ir.Program, error) {
	return ParseLimited(src, DefaultLimits())
}

// ParseLimited reads a program from its textual form, refusing input
// that exceeds lim while reading it (a refused bound surfaces as a
// *LimitError; malformed input surfaces as a plain error).  Zero or
// negative fields of lim fall back to the DefaultLimits value, so
// callers only set the bounds they meter.
func ParseLimited(src string, lim Limits) (*ir.Program, error) {
	def := DefaultLimits()
	if lim.MaxMemWords <= 0 {
		lim.MaxMemWords = def.MaxMemWords
	}
	if lim.MaxFuncs <= 0 {
		lim.MaxFuncs = def.MaxFuncs
	}
	if lim.MaxBlocks <= 0 {
		lim.MaxBlocks = def.MaxBlocks
	}
	if lim.MaxInstrs <= 0 {
		lim.MaxInstrs = def.MaxInstrs
	}
	if lim.MaxRegs <= 0 {
		lim.MaxRegs = def.MaxRegs
	}
	if lim.MaxPRegs <= 0 {
		lim.MaxPRegs = def.MaxPRegs
	}
	ps := &parser{lim: lim, maxReg: map[*ir.Func]ir.Reg{}, maxPReg: map[*ir.Func]ir.PReg{}}
	for _, raw := range strings.Split(src, "\n") {
		ps.line++
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if err := ps.parseLine(line); err != nil {
			return nil, err
		}
	}
	if ps.p == nil {
		return nil, fmt.Errorf("asm: empty program (missing .mem)")
	}
	// Fix register counters.
	for f, r := range ps.maxReg {
		if r+1 > f.NextReg {
			f.NextReg = r + 1
		}
	}
	for f, r := range ps.maxPReg {
		if r+1 > f.NextPReg {
			f.NextPReg = r + 1
		}
	}
	if err := ps.p.Verify(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return ps.p, nil
}

func (ps *parser) parseLine(line string) error {
	switch {
	case strings.HasPrefix(line, ".mem "):
		n, err := strconv.Atoi(strings.TrimSpace(line[5:]))
		if err != nil || n <= 0 {
			return ps.errf("bad .mem")
		}
		if n > ps.lim.MaxMemWords {
			return ps.limitErr("mem words", int64(ps.lim.MaxMemWords), int64(n))
		}
		ps.p = ir.NewProgram(n)
		return nil
	case strings.HasPrefix(line, ".entry "):
		n, err := strconv.Atoi(strings.TrimSpace(line[7:]))
		if err != nil || ps.p == nil {
			return ps.errf("bad .entry (or before .mem)")
		}
		ps.p.Entry = n
		return nil
	case strings.HasPrefix(line, ".fentry "):
		n, err := strconv.Atoi(strings.TrimSpace(line[8:]))
		if err != nil || ps.f == nil {
			return ps.errf("bad .fentry")
		}
		ps.f.Entry = n
		return nil
	case strings.HasPrefix(line, ".data "):
		rest := line[6:]
		colon := strings.Index(rest, ":")
		if colon < 0 {
			return ps.errf("bad .data (missing colon)")
		}
		addr, err := strconv.ParseInt(strings.TrimSpace(rest[:colon]), 10, 64)
		if err != nil || addr < 0 || ps.p == nil {
			return ps.errf("bad .data address (or before .mem)")
		}
		for _, tok := range strings.Fields(rest[colon+1:]) {
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return ps.errf("bad .data value %q", tok)
			}
			// Initialized data must fit the declared memory: the emulator
			// copies Data into a MemWords-sized image, so words past the
			// end would be silently dropped — and an unchecked address
			// would let one short line materialize gigabytes of zeros.
			if addr >= int64(ps.p.MemWords) {
				return ps.errf(".data address %d outside .mem %d", addr, ps.p.MemWords)
			}
			for int64(len(ps.p.Data)) <= addr {
				ps.p.Data = append(ps.p.Data, 0)
			}
			ps.p.Data[addr] = v
			addr++
		}
		return nil
	case strings.HasPrefix(line, "func "):
		// func F<n> <name>:
		rest := strings.TrimSuffix(strings.TrimPrefix(line, "func "), ":")
		fields := strings.Fields(rest)
		if len(fields) < 1 || !strings.HasPrefix(fields[0], "F") {
			return ps.errf("bad func header")
		}
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		if ps.p == nil {
			return ps.errf("func before .mem directive")
		}
		if len(ps.p.Funcs) >= ps.lim.MaxFuncs {
			return ps.limitErr("function count", int64(ps.lim.MaxFuncs), int64(len(ps.p.Funcs)+1))
		}
		ps.f = ir.NewFunc(name)
		ps.p.AddFunc(ps.f)
		ps.b = nil
		return nil
	case strings.HasPrefix(line, "B") && strings.Contains(line, ":"):
		colon := strings.Index(line, ":")
		id, err := strconv.Atoi(line[1:colon])
		if err != nil || ps.f == nil {
			return ps.errf("bad block label")
		}
		b, err := ps.block(id)
		if err != nil {
			return err
		}
		ps.b = b
		ps.b.Dead = false
		if c := strings.Index(line, "; "); c > colon {
			ps.b.Name = strings.TrimSpace(line[c+2:])
		}
		return nil
	case strings.HasPrefix(line, "; fall B"):
		id, err := strconv.Atoi(strings.TrimSpace(line[8:]))
		if err != nil || ps.b == nil {
			return ps.errf("bad fall comment")
		}
		b, err := ps.block(id)
		if err != nil {
			return err
		}
		ps.b.Fall = b.ID
		return nil
	case strings.HasPrefix(line, ";"):
		return nil // comment
	}
	if ps.b == nil {
		return ps.errf("instruction outside a block: %q", line)
	}
	if ps.instrs >= ps.lim.MaxInstrs {
		return ps.limitErr("instruction count", int64(ps.lim.MaxInstrs), int64(ps.instrs+1))
	}
	in, err := ps.parseInstr(line)
	if err != nil {
		return err
	}
	ps.b.Append(in)
	ps.instrs++
	return nil
}

// block returns the function's block with the given ID, materializing dead
// placeholders for gaps so IDs round-trip.  IDs are bounded before any
// placeholder is created: materialization is linear in the ID, so an
// unbounded label would be an allocation amplifier.
func (ps *parser) block(id int) (*ir.Block, error) {
	if id >= ps.lim.MaxBlocks {
		return nil, ps.limitErr("block id", int64(ps.lim.MaxBlocks-1), int64(id))
	}
	for len(ps.f.Blocks) <= id {
		nb := ps.f.NewBlock()
		if nb.ID != ps.f.Entry {
			nb.Dead = true
		}
	}
	return ps.f.Blocks[id], nil
}

// parseInstr parses one instruction line.
func (ps *parser) parseInstr(line string) (*ir.Instr, error) {
	// Trailing guard "(pN)".
	guard := ir.PNone
	if i := strings.LastIndex(line, "("); i >= 0 && strings.HasSuffix(line, ")") {
		g := line[i+1 : len(line)-1]
		p, err := ps.preg(g)
		if err != nil {
			return nil, err
		}
		guard = p
		line = strings.TrimSpace(line[:i])
	}
	mnem, rest, _ := strings.Cut(line, " ")
	silent := false
	if strings.HasSuffix(mnem, "_s") {
		base := strings.TrimSuffix(mnem, "_s")
		if op, ok := opTable[base]; ok && op.CanExcept() {
			mnem, silent = base, true
		}
	}
	args := splitArgs(rest)

	// Predicate defines: pred_<cmp> dests..., a, b
	if strings.HasPrefix(mnem, "pred_") && mnem != "pred_clear" && mnem != "pred_set" {
		cmp, ok := cmpTable[strings.TrimPrefix(mnem, "pred_")]
		if !ok {
			return nil, ps.errf("unknown predicate comparison %q", mnem)
		}
		if len(args) < 3 {
			return nil, ps.errf("predicate define needs destinations and two sources")
		}
		in := &ir.Instr{Op: ir.PredDef, Cmp: cmp, Guard: guard}
		nd := len(args) - 2
		if nd < 1 || nd > 2 {
			return nil, ps.errf("predicate define takes one or two destinations")
		}
		for k := 0; k < nd; k++ {
			pd, err := ps.predDest(args[k])
			if err != nil {
				return nil, err
			}
			if k == 0 {
				in.P1 = pd
			} else {
				in.P2 = pd
			}
		}
		var err error
		if in.A, err = ps.operand(args[nd]); err != nil {
			return nil, err
		}
		if in.B, err = ps.operand(args[nd+1]); err != nil {
			return nil, err
		}
		return in, nil
	}

	op, ok := opTable[mnem]
	if !ok {
		return nil, ps.errf("unknown mnemonic %q", mnem)
	}
	in := &ir.Instr{Op: op, Guard: guard, Silent: silent}
	switch op {
	case ir.Nop, ir.Halt, ir.Ret, ir.PredClear, ir.PredSet:
		return in, nil
	case ir.GuardApply:
		if len(args) != 2 {
			return nil, ps.errf("guard takes a predicate and a count")
		}
		p, err := ps.preg(args[0])
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return nil, ps.errf("bad guard count")
		}
		in.Guard, in.A = p, ir.Imm(n)
		return in, nil
	case ir.Jump, ir.JSR:
		if len(args) != 1 {
			return nil, ps.errf("%s takes one target", mnem)
		}
		t, err := ps.target(args[0], op == ir.JSR)
		if err != nil {
			return nil, err
		}
		in.Target = t
		return in, nil
	case ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
		if len(args) != 3 {
			return nil, ps.errf("branch takes two sources and a target")
		}
		var err error
		if in.A, err = ps.operand(args[0]); err != nil {
			return nil, err
		}
		if in.B, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		if in.Target, err = ps.target(args[2], false); err != nil {
			return nil, err
		}
		return in, nil
	case ir.Store:
		if len(args) != 3 {
			return nil, ps.errf("store takes base, offset, value")
		}
		var err error
		if in.A, err = ps.operand(args[0]); err != nil {
			return nil, err
		}
		if in.B, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		if in.C, err = ps.operand(args[2]); err != nil {
			return nil, err
		}
		return in, nil
	case ir.CMov, ir.CMovCom:
		if len(args) != 3 {
			return nil, ps.errf("%s takes dest, src, cond", mnem)
		}
		var err error
		if in.Dst, err = ps.reg(args[0]); err != nil {
			return nil, err
		}
		if in.A, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		if in.C, err = ps.operand(args[2]); err != nil {
			return nil, err
		}
		return in, nil
	case ir.Select:
		if len(args) != 4 {
			return nil, ps.errf("select takes dest, src1, src2, cond")
		}
		var err error
		if in.Dst, err = ps.reg(args[0]); err != nil {
			return nil, err
		}
		if in.A, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		if in.B, err = ps.operand(args[2]); err != nil {
			return nil, err
		}
		if in.C, err = ps.operand(args[3]); err != nil {
			return nil, err
		}
		return in, nil
	case ir.Mov, ir.CvtIF, ir.CvtFI, ir.AbsF:
		if len(args) != 2 {
			return nil, ps.errf("%s takes dest and one source", mnem)
		}
		var err error
		if in.Dst, err = ps.reg(args[0]); err != nil {
			return nil, err
		}
		if in.A, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		return in, nil
	default:
		// Generic three-operand form (ALU, comparisons, load).
		if len(args) != 3 {
			return nil, ps.errf("%s takes dest and two sources", mnem)
		}
		var err error
		if in.Dst, err = ps.reg(args[0]); err != nil {
			return nil, err
		}
		if in.A, err = ps.operand(args[1]); err != nil {
			return nil, err
		}
		if in.B, err = ps.operand(args[2]); err != nil {
			return nil, err
		}
		return in, nil
	}
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (ps *parser) reg(tok string) (ir.Reg, error) {
	if !strings.HasPrefix(tok, "r") {
		return 0, ps.errf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 1 {
		return 0, ps.errf("bad register %q", tok)
	}
	// The emulator sizes every call frame's register file by the highest
	// number used, so register numbers are a memory bound, not just names.
	if n > ps.lim.MaxRegs {
		return 0, ps.limitErr("register number", int64(ps.lim.MaxRegs), int64(n))
	}
	r := ir.Reg(n)
	if r > ps.maxReg[ps.f] {
		ps.maxReg[ps.f] = r
	}
	return r, nil
}

func (ps *parser) preg(tok string) (ir.PReg, error) {
	if tok == "p_true" {
		return ir.PNone, nil
	}
	if !strings.HasPrefix(tok, "p") {
		return 0, ps.errf("expected predicate register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 1 {
		return 0, ps.errf("bad predicate register %q", tok)
	}
	if n > ps.lim.MaxPRegs {
		return 0, ps.limitErr("predicate register number", int64(ps.lim.MaxPRegs), int64(n))
	}
	r := ir.PReg(n)
	if r > ps.maxPReg[ps.f] {
		ps.maxPReg[ps.f] = r
	}
	return r, nil
}

func (ps *parser) operand(tok string) (ir.Operand, error) {
	if strings.HasPrefix(tok, "r") {
		r, err := ps.reg(tok)
		if err != nil {
			return ir.Operand{}, err
		}
		return ir.R(r), nil
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return ir.Operand{}, ps.errf("bad operand %q", tok)
	}
	return ir.Imm(v), nil
}

func (ps *parser) target(tok string, isFunc bool) (int, error) {
	prefix := "B"
	if isFunc {
		prefix = "F"
	}
	if !strings.HasPrefix(tok, prefix) {
		return 0, ps.errf("expected %s-target, got %q", prefix, tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return 0, ps.errf("bad target %q", tok)
	}
	if !isFunc {
		if _, err := ps.block(n); err != nil { // materialize so verification sees it
			return 0, err
		}
	}
	return n, nil
}

// predDest parses "p3_U~" style destinations.
func (ps *parser) predDest(tok string) (ir.PredDest, error) {
	us := strings.Index(tok, "_")
	if us < 0 {
		return ir.PredDest{}, ps.errf("bad predicate destination %q", tok)
	}
	p, err := ps.preg(tok[:us])
	if err != nil {
		return ir.PredDest{}, err
	}
	t, ok := typeTable[tok[us+1:]]
	if !ok {
		return ir.PredDest{}, ps.errf("bad predicate type %q", tok[us+1:])
	}
	return ir.PredDest{P: p, Type: t}, nil
}
