// Package ir defines the intermediate representation used throughout the
// predication compiler and simulator.
//
// The IR models a generic load/store instruction-set architecture for an
// in-order ILP processor (VLIW or superscalar) with register interlocking,
// exactly as assumed by Mahlke et al. (ISCA 1995).  The IR carries *full*
// predicate support regardless of the eventual target model: every
// instruction has a guard predicate operand, and predicate define
// instructions with the HPL Playdoh U/OR/AND destination types are first
// class.  Back ends for targets with only partial predication (conditional
// move / select) or no predication lower this IR via the passes in
// internal/partial and internal/superblock.
//
// Values are 64-bit.  Integer registers hold int64; floating-point
// operations interpret register contents as IEEE-754 float64 bit patterns.
// Memory is word addressed with 8-byte words.
package ir

import "fmt"

// Op enumerates every opcode of the generic ISA.
type Op uint8

const (
	// Nop performs no operation.
	Nop Op = iota
	// Halt terminates the program.
	Halt

	// Integer arithmetic and logic.  Dst = A <op> B, except Mov (Dst = A).
	Mov
	Add
	Sub
	Mul
	Div // program-terminating exception on divide by zero unless Silent
	Rem // program-terminating exception on divide by zero unless Silent
	And
	Or
	Xor
	AndNot // Dst = A &^ B (complementary AND assumed by the base ISA, §3.2)
	OrNot  // Dst = A | ^B (complementary OR assumed by the base ISA, §3.2)
	Shl
	Shr

	// Integer comparisons writing 0 or 1 to Dst.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// Floating-point arithmetic on float64 bit patterns.
	AddF
	SubF
	MulF
	DivF
	AbsF // Dst = |A|
	CvtIF
	CvtFI

	// Floating-point comparisons writing integer 0 or 1 to Dst.
	CmpEQF
	CmpNEF
	CmpLTF
	CmpLEF
	CmpGTF
	CmpGEF

	// Memory.  Addresses are word addresses: effective address = A + B.
	Load  // Dst = mem[A+B]
	Store // mem[A+B] = C

	// Control transfer.  Conditional branches are compare-and-branch:
	// taken iff cmp(A, B).  Target is a block ID (JSR: function index).
	Jump
	BrEQ
	BrNE
	BrLT
	BrLE
	BrGT
	BrGE
	JSR
	Ret

	// Full-predication opcodes (§2.1).
	PredDef   // pred_<cmp> P1<type>, P2<type>, A, B (Guard)
	PredClear // set entire predicate register file to 0
	PredSet   // set entire predicate register file to 1

	// Partial-predication opcodes (§2.2).
	CMov    // if C != 0 { Dst = A }
	CMovCom // if C == 0 { Dst = A }
	Select  // Dst = C != 0 ? A : B

	// GuardApply is the guard-instruction encoding of the intermediate
	// design point the paper's §1 mentions ("introducing guard
	// instructions which hold the predicate specifiers of subsequent
	// instructions") and its conclusion asks to explore: "guard p, n"
	// applies predicate p to the next n instructions.  In this IR the
	// guarded instructions also carry their Guard field (the emulator
	// executes those), so GuardApply itself is a timing artifact: it
	// consumes a fetch/issue slot, which is exactly the model's cost over
	// full predication.
	GuardApply

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", Halt: "halt",
	Mov: "mov", Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", AndNot: "and_not", OrNot: "or_not",
	Shl: "shl", Shr: "shr",
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge",
	AddF: "add_f", SubF: "sub_f", MulF: "mul_f", DivF: "div_f", AbsF: "abs_f",
	CvtIF: "cvt_if", CvtFI: "cvt_fi",
	CmpEQF: "eq_f", CmpNEF: "ne_f", CmpLTF: "lt_f", CmpLEF: "le_f",
	CmpGTF: "gt_f", CmpGEF: "ge_f",
	Load: "load", Store: "store",
	Jump: "jump", BrEQ: "beq", BrNE: "bne", BrLT: "blt", BrLE: "ble",
	BrGT: "bgt", BrGE: "bge", JSR: "jsr", Ret: "ret",
	PredDef: "pred", PredClear: "pred_clear", PredSet: "pred_set",
	CMov: "cmov", CMovCom: "cmov_com", Select: "select",
	GuardApply: "guard",
}

// String returns the assembly mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode transfers control (including calls and
// returns).  Branch issue slots in the machine model are consumed only by
// these opcodes.
func (o Op) IsBranch() bool {
	switch o {
	case Jump, BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE, JSR, Ret:
		return true
	}
	return false
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is an integer or floating-point
// comparison writing a boolean result to an integer register.
func (o Op) IsCompare() bool {
	return (o >= CmpEQ && o <= CmpGE) || (o >= CmpEQF && o <= CmpGEF)
}

// IsFloat reports whether the opcode operates on floating-point values.
func (o Op) IsFloat() bool {
	return (o >= AddF && o <= CvtIF) || (o >= CmpEQF && o <= CmpGEF)
}

// CanExcept reports whether the opcode may raise a program-terminating
// exception (illegal address, divide by zero).  Silent versions of these
// instructions suppress the exception (the baseline architecture provides
// non-excepting versions of all instructions, §4.1).
func (o Op) CanExcept() bool {
	switch o {
	case Div, Rem, DivF, Load, Store:
		return true
	}
	return false
}

// HasDst reports whether the opcode writes an integer/FP destination
// register.
func (o Op) HasDst() bool {
	switch o {
	case Nop, Halt, Store, Jump, BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE,
		JSR, Ret, PredDef, PredClear, PredSet, GuardApply:
		return false
	}
	return true
}

// Cmp identifies a comparison kind, shared by predicate defines, comparison
// instructions, and conditional branches.
type Cmp uint8

// Comparison kinds.  The F-suffixed kinds compare float64 bit patterns.
const (
	EQ Cmp = iota
	NE
	LT
	LE
	GT
	GE
	EQF
	NEF
	LTF
	LEF
	GTF
	GEF
	numCmps
)

var cmpNames = [numCmps]string{
	EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge",
	EQF: "eq_f", NEF: "ne_f", LTF: "lt_f", LEF: "le_f", GTF: "gt_f", GEF: "ge_f",
}

// String returns the mnemonic suffix for the comparison kind.
func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Valid reports whether c is one of the defined comparison kinds.
func (c Cmp) Valid() bool { return c < numCmps }

// Invert returns the complementary comparison (EQ<->NE, LT<->GE, ...).
func (c Cmp) Invert() Cmp {
	switch c {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case GE:
		return LT
	case GT:
		return LE
	case LE:
		return GT
	case EQF:
		return NEF
	case NEF:
		return EQF
	case LTF:
		return GEF
	case GEF:
		return LTF
	case GTF:
		return LEF
	case LEF:
		return GTF
	}
	panic(fmt.Sprintf("ir: Invert: invalid comparison kind %d", uint8(c)))
}

// IsFloat reports whether the comparison operates on floating-point values.
func (c Cmp) IsFloat() bool { return c >= EQF }

// CompareOp returns the comparison opcode (CmpEQ...) computing this
// comparison into an integer register.
func (c Cmp) CompareOp() Op {
	switch c {
	case EQ:
		return CmpEQ
	case NE:
		return CmpNE
	case LT:
		return CmpLT
	case LE:
		return CmpLE
	case GT:
		return CmpGT
	case GE:
		return CmpGE
	case EQF:
		return CmpEQF
	case NEF:
		return CmpNEF
	case LTF:
		return CmpLTF
	case LEF:
		return CmpLEF
	case GTF:
		return CmpGTF
	case GEF:
		return CmpGEF
	}
	panic(fmt.Sprintf("ir: CompareOp: invalid comparison kind %d", uint8(c)))
}

// BranchOp returns the conditional-branch opcode testing this comparison.
// Floating-point comparisons have no direct branch form; callers must first
// materialize the comparison into an integer register.
func (c Cmp) BranchOp() (Op, bool) {
	switch c {
	case EQ:
		return BrEQ, true
	case NE:
		return BrNE, true
	case LT:
		return BrLT, true
	case LE:
		return BrLE, true
	case GT:
		return BrGT, true
	case GE:
		return BrGE, true
	}
	return Nop, false
}

// BranchCmp returns the comparison kind tested by a conditional branch
// opcode.
func BranchCmp(o Op) (Cmp, bool) {
	switch o {
	case BrEQ:
		return EQ, true
	case BrNE:
		return NE, true
	case BrLT:
		return LT, true
	case BrLE:
		return LE, true
	case BrGT:
		return GT, true
	case BrGE:
		return GE, true
	}
	return 0, false
}

// CompareCmp returns the comparison kind computed by a comparison opcode.
func CompareCmp(o Op) (Cmp, bool) {
	switch o {
	case CmpEQ:
		return EQ, true
	case CmpNE:
		return NE, true
	case CmpLT:
		return LT, true
	case CmpLE:
		return LE, true
	case CmpGT:
		return GT, true
	case CmpGE:
		return GE, true
	case CmpEQF:
		return EQF, true
	case CmpNEF:
		return NEF, true
	case CmpLTF:
		return LTF, true
	case CmpLEF:
		return LEF, true
	case CmpGTF:
		return GTF, true
	case CmpGEF:
		return GEF, true
	}
	return 0, false
}
