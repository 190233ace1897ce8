package ir

import "fmt"

// Reg names a virtual integer/floating-point register.  RNone (0) denotes
// "no register".  The paper assumes an infinite register file; virtual
// registers are never spilled.
type Reg int32

// RNone is the absent register.
const RNone Reg = 0

// String returns the assembly name of the register.
func (r Reg) String() string {
	if r == RNone {
		return "r_none"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Operand is an instruction source: either a register or an immediate.
type Operand struct {
	R     Reg
	Imm   int64
	IsImm bool
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{R: r} }

// Imm makes an integer immediate operand.
func Imm(v int64) Operand { return Operand{Imm: v, IsImm: true} }

// FImm makes a floating-point immediate operand (stored as float64 bits).
func FImm(f float64) Operand { return Operand{Imm: int64(f64bits(f)), IsImm: true} }

// IsReg reports whether the operand is a (real) register.
func (o Operand) IsReg() bool { return !o.IsImm && o.R != RNone }

// String renders the operand in assembly form.
func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("%d", o.Imm)
	}
	return o.R.String()
}

// Instr is a single IR instruction.  Instructions are referenced by pointer
// so that transformation passes can splice and reorder them freely.
type Instr struct {
	Op  Op
	Cmp Cmp // comparison kind for PredDef

	Dst     Reg     // integer/FP destination (RNone if none)
	A, B, C Operand // sources; C is used by Store (value) and Select (cond)

	P1, P2 PredDest // predicate define destinations
	Guard  PReg     // guarding predicate (PNone = always execute)

	Target int // branch target block ID; JSR: callee function index

	// Silent marks the non-excepting version of the instruction.  The
	// baseline architecture provides silent versions of all potentially
	// excepting instructions to support speculative execution (§4.1).
	Silent bool

	// Addr is the code byte address assigned by Program.AssignAddresses;
	// it drives the instruction cache and branch-target-buffer models.
	Addr int32
}

// NewInstr builds an instruction with up to three sources.
func NewInstr(op Op, dst Reg, srcs ...Operand) *Instr {
	in := &Instr{Op: op, Dst: dst}
	switch len(srcs) {
	case 3:
		in.C = srcs[2]
		fallthrough
	case 2:
		in.B = srcs[1]
		fallthrough
	case 1:
		in.A = srcs[0]
	case 0:
	default:
		panic(fmt.Sprintf("ir: NewInstr(%s): %d sources, the IR has at most 3 operand slots", op, len(srcs)))
	}
	return in
}

// NewPredDef builds a predicate define instruction
// pred_<cmp> p1<t1>, p2<t2>, a, b (guard).
func NewPredDef(cmp Cmp, d1, d2 PredDest, a, b Operand, guard PReg) *Instr {
	return &Instr{Op: PredDef, Cmp: cmp, P1: d1, P2: d2, A: a, B: b, Guard: guard}
}

// NewBranch builds a conditional compare-and-branch to the given block.
func NewBranch(cmp Cmp, a, b Operand, target int) *Instr {
	op, ok := cmp.BranchOp()
	if !ok {
		panic("ir: NewBranch: no branch opcode for comparison " + cmp.String() + " (materialize float comparisons into a register first)")
	}
	return &Instr{Op: op, A: a, B: b, Target: target}
}

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() *Instr {
	cp := *in
	return &cp
}

// SrcRegs appends the source registers read by the instruction to dst and
// returns it.  The guard predicate is not included (see Guard), nor are
// predicate registers.  CMov and CMovCom read their destination register:
// when the move is suppressed the old destination value survives.
func (in *Instr) SrcRegs(dst []Reg) []Reg {
	appendReg := func(o Operand) {
		if o.IsReg() {
			dst = append(dst, o.R)
		}
	}
	switch in.Op {
	case Nop, Halt, Jump, JSR, Ret, PredClear, PredSet, GuardApply:
		return dst
	case Store:
		appendReg(in.A)
		appendReg(in.B)
		appendReg(in.C)
		return dst
	case Select:
		appendReg(in.A)
		appendReg(in.B)
		appendReg(in.C)
		return dst
	case CMov, CMovCom:
		appendReg(in.A)
		appendReg(in.C)
		if in.Dst != RNone {
			dst = append(dst, in.Dst) // conditional write: old value is read
		}
		return dst
	case Mov, CvtIF, CvtFI, AbsF:
		appendReg(in.A)
		return dst
	default:
		appendReg(in.A)
		appendReg(in.B)
		return dst
	}
}

// DefReg returns the integer/FP register written by the instruction, or
// RNone.
func (in *Instr) DefReg() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return RNone
}

// ConditionalDef reports whether the instruction's register write is
// conditional even ignoring the guard predicate (CMov/CMovCom write only
// when their condition holds, so they do not kill the prior value).
func (in *Instr) ConditionalDef() bool { return in.Op == CMov || in.Op == CMovCom }

// PredDefs appends the predicate registers written (possibly conditionally)
// by the instruction to dst and returns it.
func (in *Instr) PredDefs(dst []PReg) []PReg {
	if in.Op == PredDef {
		if in.P1.Type != PredNone && in.P1.P != PNone {
			dst = append(dst, in.P1.P)
		}
		if in.P2.Type != PredNone && in.P2.P != PNone {
			dst = append(dst, in.P2.P)
		}
	}
	return dst
}

// Guarded reports whether the instruction carries a real guard predicate.
func (in *Instr) Guarded() bool { return in.Guard != PNone }

// String renders the instruction in the paper's assembly style, e.g.
//
//	pred_eq p1_OR, p3_U~, r4, 0 (p2)
//	add r7, r7, 1 (p3)
//	blt r2, r3, B5
func (in *Instr) String() string {
	guard := ""
	if in.Guard != PNone {
		guard = fmt.Sprintf(" (%s)", in.Guard)
	}
	silent := ""
	if in.Silent {
		silent = "_s"
	}
	switch in.Op {
	case Nop, Halt, Ret, PredClear, PredSet:
		return in.Op.String() + guard
	case GuardApply:
		return fmt.Sprintf("guard %s, %d", in.Guard, in.A.Imm)
	case Jump:
		return fmt.Sprintf("jump B%d%s", in.Target, guard)
	case JSR:
		return fmt.Sprintf("jsr F%d%s", in.Target, guard)
	case BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE:
		return fmt.Sprintf("%s %s, %s, B%d%s", in.Op, in.A, in.B, in.Target, guard)
	case PredDef:
		s := fmt.Sprintf("pred_%s", in.Cmp)
		dests := ""
		if in.P1.Type != PredNone {
			dests = fmt.Sprintf("%s_%s", in.P1.P, in.P1.Type)
		}
		if in.P2.Type != PredNone {
			if dests != "" {
				dests += ", "
			}
			dests += fmt.Sprintf("%s_%s", in.P2.P, in.P2.Type)
		}
		return fmt.Sprintf("%s %s, %s, %s%s", s, dests, in.A, in.B, guard)
	case Store:
		return fmt.Sprintf("store%s %s, %s, %s%s", silent, in.A, in.B, in.C, guard)
	case Load:
		return fmt.Sprintf("load%s %s, %s, %s%s", silent, in.Dst, in.A, in.B, guard)
	case Mov, CvtIF, CvtFI, AbsF:
		return fmt.Sprintf("%s%s %s, %s%s", in.Op, silent, in.Dst, in.A, guard)
	case CMov, CMovCom:
		return fmt.Sprintf("%s %s, %s, %s%s", in.Op, in.Dst, in.A, in.C, guard)
	case Select:
		return fmt.Sprintf("select %s, %s, %s, %s%s", in.Dst, in.A, in.B, in.C, guard)
	default:
		return fmt.Sprintf("%s%s %s, %s, %s%s", in.Op, silent, in.Dst, in.A, in.B, guard)
	}
}
